"""The edge blockchain protocol node.

One :class:`EdgeNode` per edge device, tying every subsystem together
(Section III): it produces signed data + metadata, relays and pools
metadata, mines blocks with the PoS lottery, computes storage allocations
when it wins, stores what the chain assigns it, proactively fetches
assigned payloads from producers, serves data requests, and recovers
missing blocks after disconnections.

The node is event-driven: the network delivers messages into
:meth:`EdgeNode.handle`, and mining is a scheduled event at the node's
earliest Eq.-9-satisfying second (see ``repro.core.pos.mining_delay`` —
provably the same instant the paper's per-second polling loop fires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.account import Account
from repro.core.admission import (
    BAD_ALLOCATION,
    EQUIVOCATION,
    FLOOD,
    MAX_REQUEST_INDICES,
    MAX_RESPONSE_BLOCKS,
    AdmissionControl,
    block_admissible,
    classify_rejection,
    metadata_admissible,
)
from repro.core.allocation import AllocationEngine
from repro.core.block import Block
from repro.core.blockchain import Blockchain, BlockOutcome, ChainState, PlacementCheck
from repro.core.config import SystemConfig
from repro.core.errors import (
    AllocationMismatchError,
    ConsensusError,
    StorageError,
    ValidationError,
)
from repro.obs import runtime as _obs
from repro.core.messages import (
    CATEGORY_BLOCK,
    CATEGORY_BLOCK_RECOVERY,
    CATEGORY_CHAIN_SYNC,
    CATEGORY_DATA_REQUEST,
    CATEGORY_DATA_RESPONSE,
    CATEGORY_DISSEMINATION,
    CATEGORY_DISSEMINATION_REQUEST,
    CATEGORY_METADATA,
    CATEGORY_STORAGE_CLAIM,
    BlockAnnounce,
    BlockRequest,
    BlockResponse,
    ChainRequest,
    ChainResponse,
    DataNack,
    DataRequest,
    DataResponse,
    DisseminationRequest,
    DisseminationResponse,
    InvalidStorageClaim,
    MetadataAnnounce,
)
from repro.core.metadata import MetadataItem, create_metadata
from repro.core.pos import _hit_of, compute_hit, compute_pos_hash, mining_delay
from repro.core.storage import NodeStorage
from repro.core.sync import SyncState, plan_block_requests
from repro.core.validation import (
    allocations_verifiable,
    derive_placement,
    verify_block_allocations,
)
from repro.energy.meter import EnergyMeter
from repro.simnet.engine import EventEngine, EventHandle
from repro.simnet.topology import Topology
from repro.simnet.transport import Network


@dataclass
class PendingRequest:
    """An outstanding data request from this node."""

    data_id: str
    started_at: float
    candidates: List[int]
    tried: Set[int] = field(default_factory=set)
    retries: int = 0
    #: Node currently being waited on, and a serial that invalidates stale
    #: response timeouts once the request moves on.
    current_target: Optional[int] = None
    attempt_serial: int = 0


#: Seconds to wait for a data response before declaring the storing node
#: unresponsive (paper: no response → claim the storage invalid).
_RESPONSE_TIMEOUT = 10.0


#: When every replica is unreachable (mobility partition), retry after this
#: long — the topology usually re-merges within a mobility epoch.
_REQUEST_RETRY_DELAY = 30.0

#: Retry attempts before a request counts as failed.
_REQUEST_MAX_RETRIES = 3


@dataclass
class NodeCounters:
    """Per-node protocol statistics."""

    blocks_mined: int = 0
    data_produced: int = 0
    data_requests_sent: int = 0
    data_requests_served: int = 0
    data_requests_failed: int = 0
    data_nacks_sent: int = 0
    blocks_rejected: int = 0
    recoveries_completed: int = 0
    claims_broadcast: int = 0


class EdgeNode:
    """A full protocol participant.

    ``node_ids`` (sorted), ``address_of`` and ``mobility_ranges`` are the
    cluster's tables: built once by the cluster, read-only, and held by
    every node and chain as the same objects, never copied per node.
    """

    def __init__(
        self,
        node_id: int,
        account: Account,
        config: SystemConfig,
        network: Network,
        engine: EventEngine,
        topology: Topology,
        allocator: AllocationEngine,
        node_ids: Tuple[int, ...],
        address_of: Dict[int, str],
        mobility_ranges: Sequence[float],
        meter: Optional[EnergyMeter] = None,
    ):
        self.node_id = node_id
        self.account = account
        self.config = config
        self.network = network
        self.engine = engine
        self.topology = topology
        self.allocator = allocator
        self.mobility_ranges = mobility_ranges
        self.meter = meter

        self.chain = Blockchain(node_ids, config, address_of)
        self.storage = NodeStorage(
            capacity=config.storage_capacity,
            recent_cache_capacity=config.recent_cache_capacity,
        )
        self.storage.set_last_block(self.chain.tip)
        self.mempool: Dict[str, MetadataItem] = {}
        self.own_payloads: Set[str] = set()
        self.sync = SyncState(
            max_buffered=config.sync_buffer_limit,
            max_outstanding=config.sync_outstanding_limit,
        )
        self.admission = AdmissionControl(
            quarantine_threshold=config.quarantine_threshold
        )
        #: Per-source time of the last fork-triggered chain request;
        #: repeats within a block interval are suppressed while the first
        #: response is pending, so an invalid-block spammer cannot goad
        #: this node into a chain-request storm.
        self._fork_chain_request_at: Dict[int, float] = {}
        self.counters = NodeCounters()
        self.delivery_times: List[float] = []
        #: (data_id, storing_node) pairs marked invalid by claims
        #: (Section III-B-2); such replicas are skipped when fetching.
        self.invalid_storage: Set[Tuple[str, int]] = set()

        self._mining_handle: Optional[EventHandle] = None
        self._pos_wait_started: float = 0.0
        self._pending: Dict[int, PendingRequest] = {}
        self._next_request_id = 0
        self._produce_sequence = 0

        network.register(node_id, self.handle)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin mining off the genesis block."""
        self._pos_wait_started = self.engine.now
        self._schedule_mining()

    def on_reconnect(self) -> None:
        """Called by the churn injector when this node comes back online."""
        self._pos_wait_started = self.engine.now
        self._schedule_mining()

    @property
    def online(self) -> bool:
        return self.network.is_online(self.node_id)

    # ------------------------------------------------------------------ data production

    def produce_data(
        self,
        data_type: str = "Sensor/Generic",
        location: str = "Field/0,0",
        valid_time_minutes: Optional[float] = None,
        properties: str = "",
        size_bytes: Optional[int] = None,
    ) -> MetadataItem:
        """Create, sign, and announce a new data item (Section IV-B)."""
        valid = (
            valid_time_minutes
            if valid_time_minutes is not None
            else self.config.default_valid_time_minutes
        )
        kwargs = {} if size_bytes is None else {"size_bytes": size_bytes}
        metadata = create_metadata(
            account=self.account,
            producer=self.node_id,
            sequence=self._produce_sequence,
            created_at=self.engine.now,
            data_type=data_type,
            location=location,
            valid_time_minutes=valid,
            properties=properties,
            **kwargs,
        )
        self._produce_sequence += 1
        self.counters.data_produced += 1
        self.own_payloads.add(metadata.data_id)
        self.mempool[metadata.data_id] = metadata
        self.network.broadcast(
            self.node_id,
            MetadataAnnounce(metadata),
            MetadataAnnounce(metadata).wire_size(),
            CATEGORY_METADATA,
        )
        return metadata

    # ------------------------------------------------------------------ mining

    def _mining_delay(self) -> Optional[int]:
        """Seconds until this node's hit meets its target on the current tip."""
        parent = self.chain.tip
        hit = compute_hit(
            parent.pos_hash, self.account.address, self.config.hit_modulus
        )
        stake = self.chain.state.tokens(self.node_id)
        stored = self.chain.state.stored_items(self.node_id, parent.timestamp)
        amendment = self.chain.state.amendment(parent.timestamp)
        return mining_delay(hit, stake, stored, amendment)

    def _schedule_mining(self) -> None:
        if self._mining_handle is not None:
            self._mining_handle.cancel()
            self._mining_handle = None
        if not self.online:
            return
        parent = self.chain.tip
        if self.config.consensus == "pow":
            # Traditional baseline: brute-force from the moment we saw the
            # tip; the success time is geometric in the attempt count.
            attempts = int(
                self.engine.np_rng.geometric(16.0**-self.config.pow_difficulty)
            )
            fire_at = self.engine.now + attempts / self.config.pow_hash_rate
        else:
            delay = self._mining_delay()
            if delay is None:
                return  # cannot mine (zero stake-storage product)
            fire_at = max(parent.timestamp + delay, self.engine.now)
        self._mining_handle = self.engine.call_at(
            fire_at, self._try_mine, parent.current_hash
        )

    def _try_mine(self, expected_parent_hash: str) -> None:
        if not self.online:
            return
        parent = self.chain.tip
        if parent.current_hash != expected_parent_hash:
            return  # tip moved; a newer schedule exists
        block = self._build_block(parent)
        try:
            self.chain.append_block(block)
        except ValidationError:
            # Should not happen: we built it from our own state.  Reschedule.
            self._schedule_mining()
            return
        self.counters.blocks_mined += 1
        self._bill_pos_wait()
        self._apply_tip_assignments(block)
        self.network.broadcast(
            self.node_id, BlockAnnounce(block), BlockAnnounce(block).wire_size(), CATEGORY_BLOCK
        )
        self._schedule_mining()

    def _build_block(self, parent: Block) -> Block:
        """Assemble the next block: pack metadata, compute all placements.

        The placements are :func:`~repro.core.validation.derive_placement`
        at the block's timestamp (not the wall-clock mining instant), so
        a validator holding the same chain state and topology re-derives
        every storing-node decision bit for bit.
        """
        now = max(self.engine.now, parent.timestamp + 1.0)  # = block timestamp
        state = self.chain.state
        items = [
            item
            for data_id, item in sorted(self.mempool.items())
            # Skip what an earlier block packed, and what has expired.
            if self.chain.metadata_of(data_id) is None and not item.is_expired(now)
        ]
        placement = derive_placement(
            len(items),
            self.node_id,
            now,
            state,
            self.allocator,
            self.topology.hop_matrix(),
            self.mobility_ranges,
            self.config.storage_capacity,
        )

        pos_hash = compute_pos_hash(parent.pos_hash, self.account.address)
        if self.config.consensus == "pow":
            hit, target_b = 0, 0.0
        else:
            hit = _hit_of(pos_hash, self.config.hit_modulus)
            target_b = state.amendment(parent.timestamp)
        timestamp = now  # already clamped past the parent above
        return Block(
            index=parent.index + 1,
            timestamp=timestamp,
            previous_hash=parent.current_hash,
            pos_hash=pos_hash,
            miner=self.node_id,
            miner_address=self.account.address,
            hit=hit,
            target_b=target_b,
            metadata_items=tuple(
                item.with_storing_nodes(nodes)
                for item, nodes in zip(items, placement.items)
            ),
            storing_nodes=placement.block,
            previous_storing_nodes=tuple(state.block_storing.get(parent.index, ())),
            recent_cache_nodes=placement.recent,
        )

    def _bill_pos_wait(self) -> None:
        """Charge mining energy for the seconds since the last tip change.

        PoS bills the per-second polling loop; PoW bills the hash attempts
        a continuously-hashing miner would have burned in the same window.
        """
        if self.meter is not None:
            waited = max(0.0, self.engine.now - self._pos_wait_started)
            if self.config.consensus == "pow":
                self.meter.charge_pow_hashes(
                    int(waited * self.config.pow_hash_rate)
                )
            else:
                self.meter.charge_pos_ticks(waited)
        self._pos_wait_started = self.engine.now

    # ------------------------------------------------------------------ tip processing

    def _apply_tip_assignments(self, block: Block) -> None:
        """React to a block that just became the tip."""
        now = self.engine.now
        self.storage.evict_expired(now)
        self.storage.set_last_block(block)
        for item in block.metadata_items:
            self.mempool.pop(item.data_id, None)
        for data_id in [d for d, it in self.mempool.items() if it.is_expired(now)]:
            del self.mempool[data_id]
        if self.node_id in block.storing_nodes:
            try:
                self.storage.store_block(block)
            except StorageError:
                pass  # full: the chain credit stands but we can't serve it
        if self.node_id in block.recent_cache_nodes:
            self.storage.cache_recent_block(block)
        for item in block.metadata_items:
            if self.node_id not in item.storing_nodes:
                continue
            try:
                self.storage.store_data(
                    item, has_payload=(item.data_id in self.own_payloads)
                )
            except StorageError:
                continue
            if item.data_id not in self.own_payloads and item.producer != self.node_id:
                request = DisseminationRequest(
                    data_id=item.data_id, requester=self.node_id
                )
                self.network.send(
                    self.node_id,
                    item.producer,
                    request,
                    request.wire_size(),
                    CATEGORY_DISSEMINATION_REQUEST,
                )
        self._maybe_prune()

    def _maybe_prune(self) -> None:
        """Advance the lifecycle pruning horizon after a tip change.

        No-op unless the config carries a :class:`LifecycleSpec`.  When
        the chain drops a prefix, locally stored bodies below the new
        floor go with it — their slots stay accounted (the chain-recorded
        assignment stands), only the serveable copies move to the cold
        tier handled by the persistence layer.
        """
        dropped = self.chain.maybe_prune()
        if not dropped:
            return
        self.storage.prune_block_bodies(self.chain.first_retained_index)
        if _obs.is_enabled():
            _obs.add("lifecycle.pruned_blocks", dropped)

    # ------------------------------------------------------------------ data access

    def request_data(self, data_id: str) -> Optional[int]:
        """Fetch a data item per Section IV-D.

        Returns the request id, or None when the request resolved locally
        (we store the payload ourselves) or no metadata exists on-chain.
        """
        metadata = self.chain.metadata_of(data_id)
        if metadata is None:
            self.counters.data_requests_failed += 1
            return None
        if self.storage.can_serve(data_id) or data_id in self.own_payloads:
            self.delivery_times.append(0.0)
            self.counters.data_requests_sent += 1
            self.counters.data_requests_served += 1
            return None
        candidates = self._candidates_for(metadata)
        if not candidates:
            self.counters.data_requests_failed += 1
            return None
        request_id = self._next_request_id
        self._next_request_id += 1
        self._pending[request_id] = PendingRequest(
            data_id=data_id, started_at=self.engine.now, candidates=candidates
        )
        self.counters.data_requests_sent += 1
        self._try_next_candidate(request_id)
        return request_id

    def _candidates_for(self, metadata: MetadataItem) -> List[int]:
        """Serving candidates, nearest first, skipping claimed-invalid pairs."""
        candidates = sorted(
            (
                node
                for node in metadata.storing_nodes
                if node != self.node_id
                and (metadata.data_id, node) not in self.invalid_storage
            ),
            key=lambda node: (self._hops_to(node), node),
        )
        producer = metadata.producer
        if (
            producer != self.node_id
            and producer not in candidates
            and (metadata.data_id, producer) not in self.invalid_storage
        ):
            candidates.append(producer)  # last resort: the source
        return candidates

    def _hops_to(self, node: int) -> int:
        hops = self.topology.hop_count(self.node_id, node)
        return hops if hops >= 0 else 10**6

    def _try_next_candidate(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        for candidate in pending.candidates:
            if candidate in pending.tried:
                continue
            pending.tried.add(candidate)
            request = DataRequest(
                data_id=pending.data_id,
                requester=self.node_id,
                request_id=request_id,
            )
            receipt = self.network.send(
                self.node_id,
                candidate,
                request,
                request.wire_size(),
                CATEGORY_DATA_REQUEST,
            )
            if receipt.delivered:
                pending.current_target = candidate
                pending.attempt_serial += 1
                self.engine.schedule(
                    _RESPONSE_TIMEOUT,
                    self._on_response_timeout,
                    request_id,
                    pending.attempt_serial,
                )
                return  # wait for the response / NACK / timeout
        # Every candidate unreachable or NACKed: retry once the topology has
        # had a chance to re-merge, with a fresh candidate list.
        if pending.retries < _REQUEST_MAX_RETRIES:
            pending.retries += 1
            pending.tried.clear()
            pending.current_target = None
            pending.attempt_serial += 1  # invalidate in-flight timeouts
            self.engine.schedule(
                _REQUEST_RETRY_DELAY, self._retry_request, request_id
            )
            return
        self._pending.pop(request_id, None)
        self.counters.data_requests_failed += 1

    def _on_response_timeout(self, request_id: int, serial: int) -> None:
        """No response within the timeout — the paper's invalidity rule."""
        pending = self._pending.get(request_id)
        if pending is None or pending.attempt_serial != serial:
            return  # answered (or moved on) in the meantime
        target = pending.current_target
        if target is not None:
            pair = (pending.data_id, target)
            if pair not in self.invalid_storage:
                self.invalid_storage.add(pair)
                self.counters.claims_broadcast += 1
                claim = InvalidStorageClaim(
                    data_id=pending.data_id,
                    storing_node=target,
                    claimer=self.node_id,
                )
                self.network.broadcast(
                    self.node_id, claim, claim.wire_size(), CATEGORY_STORAGE_CLAIM
                )
        self._try_next_candidate(request_id)

    def _retry_request(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None or not self.online:
            return
        metadata = self.chain.metadata_of(pending.data_id)
        if metadata is not None:
            pending.candidates = self._candidates_for(metadata)
        self._try_next_candidate(request_id)

    # ------------------------------------------------------------------ message dispatch

    def handle(self, source: int, payload: object, category: str) -> None:
        """Network delivery entry point."""
        if self.admission.is_quarantined(source):
            _obs.add("chaos.dropped_quarantined")
            return
        if isinstance(payload, MetadataAnnounce):
            self._on_metadata(source, payload.metadata)
        elif isinstance(payload, BlockAnnounce):
            self._on_block_announce(source, payload.block)
        elif isinstance(payload, DataRequest):
            self._on_data_request(source, payload)
        elif isinstance(payload, DataResponse):
            self._on_data_response(payload)
        elif isinstance(payload, DataNack):
            self._on_data_nack(source, payload)
        elif isinstance(payload, InvalidStorageClaim):
            self._on_storage_claim(payload)
        elif isinstance(payload, DisseminationRequest):
            self._on_dissemination_request(payload)
        elif isinstance(payload, DisseminationResponse):
            self._on_dissemination_response(payload)
        elif isinstance(payload, BlockRequest):
            self._on_block_request(source, payload)
        elif isinstance(payload, BlockResponse):
            self._on_block_response(source, payload)
        elif isinstance(payload, ChainRequest):
            self._on_chain_request(source, payload)
        elif isinstance(payload, ChainResponse):
            self._on_chain_response(source, payload)

    # ------------------------------------------------------------------ handlers

    def _on_metadata(self, source: int, item: MetadataItem) -> None:
        reason = metadata_admissible(
            item,
            self.chain.address_of,
            verify_signature=self.config.verify_metadata_signatures,
            signature_cache=self.admission.signature_cache,
        )
        if reason is not None:
            self.admission.reject(source, reason)
            return
        if self.chain.metadata_of(item.data_id) is not None:
            return
        if item.is_expired(self.engine.now):
            return
        self.mempool.setdefault(item.data_id, item)

    @property
    def _placements(self) -> Optional[PlacementCheck]:
        """The allocation check this node's chain runs on each block it
        would append: None when validation is off or the solver cannot be
        re-derived (the random baseline)."""
        if self.config.validate_allocations and allocations_verifiable(
            self.config.placement_solver
        ):
            return self._placements_match
        return None

    def _placements_match(self, block: Block, state: ChainState) -> bool:
        return not verify_block_allocations(
            block,
            state,
            self.allocator,
            self.topology.hop_matrix(),
            self.mobility_ranges,
            self.config.storage_capacity,
        )

    def _refuse_block(self, peer: Optional[int], error: ValidationError) -> None:
        """Count a block refused with ``error`` and charge ``peer`` for it.

        Allocation refusals charge nobody: the re-derivation uses this
        node's *current* topology, which under mobility can lag the
        miner's view, and charging the sender would quarantine honest
        peers (see DESIGN.md §11).
        """
        self.counters.blocks_rejected += 1
        reason = classify_rejection(error)
        self.admission.reject(None if reason == BAD_ALLOCATION else peer, reason)

    def _on_block_announce(self, source: int, block: Block) -> None:
        reason = block_admissible(block, self.chain.address_of)
        if reason is not None:
            self.counters.blocks_rejected += 1
            self.admission.reject(source, reason)
            return
        if self.admission.equivocation.observe(block, self.chain.height):
            # One miner, one height, two distinct blocks: nothing-at-stake
            # equivocation.  The block is dropped and the miner charged.
            self.counters.blocks_rejected += 1
            self.admission.reject(block.miner, EQUIVOCATION)
            return
        tip = self.chain.tip
        if block.index == tip.index + 1 and block.previous_hash != tip.current_hash:
            # Fork at the next height: our tip and the miner's parent differ.
            # Longest-chain resolution: fetch the sender's chain — at most
            # once per block interval per source while a response is
            # pending, so forged forks cannot amplify into request storms.
            last = self._fork_chain_request_at.get(source)
            if (
                last is not None
                and self.engine.now - last < self.config.expected_block_interval
            ):
                return
            self._fork_chain_request_at[source] = self.engine.now
            request = ChainRequest(origin=self.node_id)
            self.network.send(
                self.node_id, source, request, request.wire_size(), CATEGORY_CHAIN_SYNC
            )
            return
        try:
            outcome = self.chain.consider_block(block, self._placements)
        except ValidationError as error:
            self._refuse_block(source, error)
            return
        if outcome is BlockOutcome.APPENDED:
            self._bill_pos_wait()
            self._apply_tip_assignments(block)
            self._drain_sync_buffer()
            self._schedule_mining()
        elif outcome is BlockOutcome.GAP:
            self._start_gap_recovery(block, source)
        # DUPLICATE / STALE: drop (first-received wins at equal height).

    def _start_gap_recovery(self, block: Block, source: Optional[int] = None) -> None:
        """Buffer an ahead-of-tip block and request the gap (Section IV-D)."""
        self.sync.begin(self.engine.now)
        self.sync.buffer_block(block, source)
        self._request_missing_blocks()
        # Escalation: if targeted recovery has stalled for two block
        # intervals (requested blocks never arrived — e.g. their storing
        # nodes are offline too), fetch the whole chain from the announcing
        # miner instead of waiting forever.
        stalled_for = self.engine.now - (self.sync.started_at or self.engine.now)
        if (
            not self.sync.chain_requested
            and stalled_for > 2 * self.config.expected_block_interval
            and self.network.is_online(block.miner)
        ):
            self.sync.chain_requested = True
            request = ChainRequest(origin=self.node_id)
            self.network.send(
                self.node_id,
                block.miner,
                request,
                request.wire_size(),
                CATEGORY_CHAIN_SYNC,
            )

    def _request_missing_blocks(self) -> None:
        missing = [
            index
            for index in self.sync.missing_below(self.chain.height)
            if index not in self.sync.outstanding
        ]
        if not missing:
            return
        neighbors = [
            node
            for node in self.topology.neighbors(self.node_id)
            if self.network.is_online(node)
            and not self.admission.is_quarantined(node)
        ]
        plan = plan_block_requests(missing, neighbors)
        for neighbor, indices in plan.items():
            fresh = self.sync.note_requested(indices)
            if not fresh:
                continue
            request = BlockRequest(indices=tuple(fresh), origin=self.node_id)
            self.network.send(
                self.node_id,
                neighbor,
                request,
                request.wire_size(),
                CATEGORY_BLOCK_RECOVERY,
            )

    def _drain_sync_buffer(self) -> None:
        """Append buffered blocks that now extend the tip."""
        while True:
            nxt = self.sync.next_appendable(self.chain.height)
            if nxt is None:
                break
            try:
                outcome = self.chain.consider_block(nxt, self._placements)
            except (ConsensusError, AllocationMismatchError) as error:
                # The block links to our tip but its PoS claim or its
                # placements fail on our own parent state: no fork explains
                # that.  Refuse it as delivered by that peer
                # (``_refuse_block`` decides whom to charge) and do not
                # react further.
                delivered_by = self.sync.source_of(nxt.index)
                self.sync.pop(nxt.index)
                self._refuse_block(delivered_by, error)
                continue
            except ValidationError:
                # The recovered block does not build on our chain: we hold a
                # stale fork (we went offline on the losing branch).  Escalate
                # once to a whole-chain fetch from that block's miner — it
                # certainly holds the chain it mined on.
                self.sync.pop(nxt.index)
                self.counters.blocks_rejected += 1
                if not self.sync.chain_requested and self.network.is_online(nxt.miner):
                    self.sync.chain_requested = True
                    request = ChainRequest(origin=self.node_id)
                    self.network.send(
                        self.node_id,
                        nxt.miner,
                        request,
                        request.wire_size(),
                        CATEGORY_CHAIN_SYNC,
                    )
                continue
            self.sync.pop(nxt.index)
            if outcome is BlockOutcome.APPENDED:
                self._apply_tip_assignments(nxt)
        if self.sync.recovering:
            if not self.sync.buffered:
                self.sync.finish(self.engine.now)
                self.counters.recoveries_completed += 1
                self._schedule_mining()
            else:
                self._request_missing_blocks()

    def _on_block_request(self, source: int, request: BlockRequest) -> None:
        if len(request.indices) > MAX_REQUEST_INDICES:
            self.admission.reject(source, FLOOD)
            return
        if not self.admission.request_rate.allow(source, self.engine.now):
            self.admission.reject(source, FLOOD)
            return
        served: List[Block] = []
        unsatisfied: List[int] = []
        for index in request.indices:
            block = self.storage.get_block(index)
            if block is not None:
                served.append(block)
            else:
                unsatisfied.append(index)
        if served:
            response = BlockResponse(blocks=tuple(served))
            self.network.send(
                self.node_id,
                request.origin,
                response,
                response.wire_size(),
                CATEGORY_BLOCK_RECOVERY,
            )
        if unsatisfied and request.ttl > 0:
            # Forward toward a node the chain says stores the block (Fig. 3:
            # J and H "request the missing block 1 from Node F").
            forward_targets: Dict[int, List[int]] = {}
            for index in unsatisfied:
                holders = [
                    node
                    for node in self.chain.state.block_storing.get(index, ())
                    if node not in (self.node_id, request.origin, source)
                    and self.network.is_online(node)
                    and not self.admission.is_quarantined(node)
                ]
                if not holders:
                    continue
                nearest = min(holders, key=lambda n: (self._hops_to(n), n))
                forward_targets.setdefault(nearest, []).append(index)
            for target, indices in forward_targets.items():
                forwarded = BlockRequest(
                    indices=tuple(indices), origin=request.origin, ttl=request.ttl - 1
                )
                self.network.send(
                    self.node_id,
                    target,
                    forwarded,
                    forwarded.wire_size(),
                    CATEGORY_BLOCK_RECOVERY,
                )

    def _on_block_response(self, source: int, response: BlockResponse) -> None:
        if len(response.blocks) > MAX_RESPONSE_BLOCKS:
            self.admission.reject(source, FLOOD)
            return
        for block in sorted(response.blocks, key=lambda b: b.index):
            if block.index <= self.chain.height:
                continue
            reason = block_admissible(block, self.chain.address_of)
            if reason is not None:
                # Poisoned sync response: drop the block before it ever
                # enters the recovery buffer, and charge the sender.
                self.counters.blocks_rejected += 1
                self.admission.reject(source, reason)
                continue
            self.sync.buffer_block(block, source)
        self._drain_sync_buffer()

    def _on_chain_request(self, source: int, request: ChainRequest) -> None:
        if not self.admission.chain_rate.allow(source, self.engine.now):
            # Whole-chain responses are the heaviest reply a peer can goad
            # us into; cap how often any one peer can ask.
            self.admission.reject(source, FLOOD)
            return
        response = ChainResponse(blocks=tuple(self.chain.blocks))
        self.network.send(
            self.node_id,
            request.origin,
            response,
            response.wire_size(),
            CATEGORY_CHAIN_SYNC,
        )

    def _on_chain_response(self, source: int, response: ChainResponse) -> None:
        self._fork_chain_request_at.pop(source, None)
        old_metadata = dict(self.chain.state.metadata_index)
        try:
            replaced = self.chain.consider_chain(
                list(response.blocks), self._placements
            )
        except ValidationError as error:
            # A candidate chain that fails genesis/checkpoint/replay
            # validation is provably bogus — honest peers always ship a
            # replayable chain sharing our genesis, and the checkpoint lag
            # keeps honest forks above the rewrite horizon.
            self._refuse_block(source, error)
            return
        if replaced:
            if self.sync.recovering:
                self.sync.finish(self.engine.now)
                self.counters.recoveries_completed += 1
            self.sync.reset()
            tip = self.chain.tip
            self.storage.set_last_block(tip)
            new_index = self.chain.state.metadata_index
            # Items orphaned by the abandoned branch go back to the mempool
            # so a future block can pack them again.
            for data_id, item in old_metadata.items():
                if data_id not in new_index and not item.is_expired(self.engine.now):
                    bare = item.with_storing_nodes(())
                    self.mempool.setdefault(data_id, bare)
            for data_id in new_index:
                self.mempool.pop(data_id, None)
            self._bill_pos_wait()
            self._maybe_prune()
            self._schedule_mining()

    def _on_data_request(self, source: int, request: DataRequest) -> None:
        metadata = self.chain.metadata_of(request.data_id)
        can_serve = (
            request.data_id in self.own_payloads
            or self.storage.can_serve(request.data_id)
        )
        if metadata is not None and can_serve:
            response = DataResponse(
                data_id=request.data_id,
                request_id=request.request_id,
                size_bytes=metadata.size_bytes,
            )
            self.network.send(
                self.node_id,
                request.requester,
                response,
                response.wire_size(),
                CATEGORY_DATA_RESPONSE,
            )
        else:
            self.counters.data_nacks_sent += 1
            nack = DataNack(data_id=request.data_id, request_id=request.request_id)
            self.network.send(
                self.node_id,
                request.requester,
                nack,
                nack.wire_size(),
                CATEGORY_DATA_RESPONSE,
            )

    def _on_data_response(self, response: DataResponse) -> None:
        pending = self._pending.pop(response.request_id, None)
        if pending is None:
            return
        self.delivery_times.append(self.engine.now - pending.started_at)
        self.counters.data_requests_served += 1

    def _on_data_nack(self, source: int, nack: DataNack) -> None:
        if nack.request_id not in self._pending:
            return
        # The storing node refused (or could not) serve: claim its storage
        # invalid so everyone skips it (Section III-B-2), then fail over.
        pair = (nack.data_id, source)
        if pair not in self.invalid_storage:
            self.invalid_storage.add(pair)
            self.counters.claims_broadcast += 1
            claim = InvalidStorageClaim(
                data_id=nack.data_id, storing_node=source, claimer=self.node_id
            )
            self.network.broadcast(
                self.node_id, claim, claim.wire_size(), CATEGORY_STORAGE_CLAIM
            )
        self._try_next_candidate(nack.request_id)

    def _on_storage_claim(self, claim: InvalidStorageClaim) -> None:
        self.invalid_storage.add((claim.data_id, claim.storing_node))

    def _on_dissemination_request(self, request: DisseminationRequest) -> None:
        if request.data_id not in self.own_payloads and not self.storage.can_serve(
            request.data_id
        ):
            return  # cannot provide; requester will be served by other replicas
        metadata = self.chain.metadata_of(request.data_id)
        size = metadata.size_bytes if metadata is not None else 0
        response = DisseminationResponse(data_id=request.data_id, size_bytes=size)
        self.network.send(
            self.node_id,
            request.requester,
            response,
            response.wire_size(),
            CATEGORY_DISSEMINATION,
        )

    def _on_dissemination_response(self, response: DisseminationResponse) -> None:
        try:
            self.storage.mark_payload_received(response.data_id)
        except StorageError:
            pass  # the slot was evicted (expiry) while the payload was in flight
