"""The blockchain: chain storage, validation, fork choice, and chain state.

Two classes:

* :class:`ChainState` — the ledger derived by replaying blocks: per-node
  tokens ``S_i`` (mining + storage incentives, Section III-A and IV-C),
  per-node stored-item counts ``Q_i`` (chain-recorded storage assignments
  with data expiry), and the amendment ``B`` for the next mining race.
  Every node derives the same state from the same blocks, which is what
  makes hits and targets publicly verifiable (Section V-A).

* :class:`Blockchain` — an append-only validated chain with longest-chain
  fork choice and gap detection (the input signal for the missing-block
  recovery protocol of Section IV-D).

Every node derives the same ledgers from the same blocks, so the chains of
one process derive them *once*: the per-node ledgers after a validated
block are an immutable value every chain on that prefix holds (see
``_SHARED`` and DESIGN.md "Shared derived state").  What a chain may prune
— its metadata index and block-storing map — stays its own.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.block import Block, make_genesis
from repro.core.config import SystemConfig
from repro.core.errors import (
    AllocationMismatchError,
    ChainLinkError,
    CheckpointError,
    ConsensusError,
    PrunedBlockError,
    ValidationError,
)
from repro.core.metadata import MetadataItem
from repro.crypto.hashing import hash_items, sha256
from repro.lifecycle.checkpoint import CheckpointRecord
from repro.core.pos import (
    _hit_of,
    compute_amendment,
    compute_pos_hash,
    satisfies_target,
)

#: Relative tolerance when validating a block's recorded B amendment.
_B_TOLERANCE = 1e-9

#: What the chains of this process have already derived, held weakly:
#: ``(parent prefix id, block hash, block placement digest, node_ids,
#: config)`` → the :class:`_Ledgers` after that block, and ``("genesis",
#: node_ids, config)`` → the default genesis :class:`Block`.  The first
#: three fields commit to everything ``_Ledgers.after`` reads (see
#: ``_Ledgers.prefix_id``), so the value is a pure function of the key; an
#: entry is written only after ``validate_child`` accepted the block on
#: that prefix, so the verdict is too (a genesis is folded unchecked, under
#: the all-zero parent id no later block can have).  Each chain holds the
#: ledgers after every block it retains, so an entry lives exactly as long
#: as some chain retains that prefix.
_SHARED: "weakref.WeakValueDictionary[tuple, object]" = weakref.WeakValueDictionary()


@dataclass(slots=True)
class _NodeLedger:
    """Chain-derived per-node ledger entry; copies share its tuples."""

    tokens: float
    data_expiries: Tuple[float, ...] = ()  # kept sorted
    blocks_stored: int = 0
    recent_cache: Tuple[int, ...] = ()  # FIFO, oldest first

    def unexpired_data(self, now: float) -> int:
        """Number of stored data items not yet expired at ``now``."""
        return len(self.data_expiries) - bisect.bisect_right(self.data_expiries, now)


class _Ledgers:
    """Every node's ledger after one chain prefix, as an immutable value.

    Any number of :class:`ChainState` objects hold one instance, so
    nothing here is written after construction — :meth:`after` builds the
    successor beside it — except ``amendment_memo``, which caches a pure
    function of ``entries``.
    """

    __slots__ = ("entries", "prefix_id", "amendment_memo", "__weakref__")

    def __init__(self, entries: Dict[int, _NodeLedger], prefix_id: bytes):
        #: node id → ledger, in ``node_ids`` order.
        self.entries = entries
        #: Commits to every block folded in so far: the digest of (parent
        #: ``prefix_id``, block hash, block placement digest).  The block
        #: hash covers every header field :meth:`after` reads and each
        #: item's expiry; the placement digest covers the items' storing
        #: nodes, which the hash leaves out.  Equal ids, equal ledgers.
        self.prefix_id = prefix_id
        #: ``(now, B)`` of the last :meth:`ChainState.amendment` call.
        self.amendment_memo: Optional[Tuple[float, float]] = None

    def after(self, block: Block, config: SystemConfig) -> "_Ledgers":
        """The ledgers with ``block`` folded in; ``self`` is untouched.

        Copy-on-write: the nodes the block credits get a private copy of
        their ledger, every other entry is shared with ``self``.
        """
        entries = dict(self.entries)
        if not block.is_genesis:
            if block.index % config.token_rescale_interval == 0:
                credited = entries.keys()
            else:
                credited = {block.miner, *block.storing_nodes, *block.recent_cache_nodes}
                for item in block.metadata_items:
                    credited.update(item.storing_nodes)
            for node in credited:
                ledger = entries.get(node)
                if ledger is not None:
                    entries[node] = _NodeLedger(
                        ledger.tokens,
                        ledger.data_expiries,
                        ledger.blocks_stored,
                        ledger.recent_cache,
                    )
            miner = entries.get(block.miner)
            if miner is not None:
                miner.tokens += config.mining_incentive
            for item in block.metadata_items:
                for node in item.storing_nodes:
                    ledger = entries.get(node)
                    if ledger is None:
                        continue
                    expiries = ledger.data_expiries
                    at = bisect.bisect_right(expiries, item.expires_at)
                    ledger.data_expiries = (
                        expiries[:at] + (item.expires_at,) + expiries[at:]
                    )
                    ledger.tokens += config.storage_incentive
            for node in block.storing_nodes:
                ledger = entries.get(node)
                if ledger is None:
                    continue
                ledger.blocks_stored += 1
                ledger.tokens += config.storage_incentive
            for node in block.recent_cache_nodes:
                ledger = entries.get(node)
                if ledger is None:
                    continue
                cache = ledger.recent_cache + (block.index,)
                overflow = len(cache) - config.recent_cache_capacity
                # FIFO (Section IV-C): the oldest entries leave first.
                ledger.recent_cache = cache[overflow:] if overflow > 0 else cache
                ledger.tokens += config.storage_incentive
            # Periodic S-rescaling keeps B numerically sane (Section V-B).
            if block.index % config.token_rescale_interval == 0:
                for ledger in entries.values():
                    ledger.tokens *= config.token_rescale_ratio
        # Fixed-width fields (32-byte digests, 64 hex characters), so plain
        # concatenation frames them unambiguously.
        prefix_id = sha256(
            self.prefix_id + block.compute_hash().encode() + block._placement_digest()
        )
        return _Ledgers(entries, prefix_id)


def _id_tuple(node_ids: Sequence[int]) -> Tuple[int, ...]:
    """``node_ids`` as a sorted tuple: the argument itself when it is one.

    Every chain of a cluster then holds the cluster's one tuple rather than
    a copy per node (DESIGN.md "Shared cluster tables").  A chain calls
    this once and hands the result to its states and replicas unchecked.
    """
    ordered = sorted(node_ids)
    if type(node_ids) is tuple and list(node_ids) == ordered:
        return node_ids
    return tuple(ordered)


@functools.lru_cache(maxsize=8)
def _initial_ledgers(node_ids: Tuple[int, ...], config: SystemConfig) -> _Ledgers:
    """Everyone at ``initial_tokens``: where each chain of a cluster starts."""
    return _Ledgers(
        {node: _NodeLedger(tokens=config.initial_tokens) for node in node_ids},
        prefix_id=bytes(32),
    )


class ChainState:
    """The ledger a node derives from its chain (deterministic replay).

    Two parts.  The per-node ledgers (``_ledgers``) are a function of the
    blocks alone, immutable, and shared by every state on the same chain
    prefix.  ``metadata_index`` and ``block_storing`` are this state's
    own: each chain prunes them on its own schedule.
    """

    def __init__(self, node_ids: Sequence[int], config: SystemConfig):
        self._start(_id_tuple(node_ids), config)

    @classmethod
    def _of_chain(
        cls, node_ids: Tuple[int, ...], config: SystemConfig
    ) -> "ChainState":
        """A genesis state over a chain's ids, already a sorted tuple."""
        state = cls.__new__(cls)
        state._start(node_ids, config)
        return state

    def _start(self, node_ids: Tuple[int, ...], config: SystemConfig) -> None:
        self.config = config
        self.node_ids = node_ids
        self._ledgers = _initial_ledgers(self.node_ids, config)
        #: data_id → metadata item (latest packed copy, with storing nodes).
        self.metadata_index: Dict[str, MetadataItem] = {}
        #: block index → nodes persisting that block.
        self.block_storing: Dict[int, Tuple[int, ...]] = {}
        self.blocks_applied = 0

    # -- replay ---------------------------------------------------------------------

    def apply_block(self, block: Block) -> None:
        """Fold one block into the ledger (must be called in chain order)."""
        self._advance(block, self._ledgers.after(block, self.config))

    def _advance(self, block: Block, ledgers: _Ledgers) -> None:
        """Move past ``block``, whose successor ledgers are ``ledgers``."""
        if block.index != self.blocks_applied:
            raise ValueError(
                f"blocks must be applied in order (expected {self.blocks_applied}, "
                f"got {block.index})"
            )
        self.block_storing[block.index] = block.storing_nodes
        if not block.is_genesis:
            for item in block.metadata_items:
                self.metadata_index[item.data_id] = item
        self._ledgers = ledgers
        self.blocks_applied += 1

    # -- PoS inputs -------------------------------------------------------------------

    def tokens(self, node: int) -> float:
        """S_i — the node's token balance."""
        return self._ledgers.entries[node].tokens

    def stored_items(self, node: int, now: float) -> int:
        """Q_i — chain-assigned items the node holds at ``now``.

        Counts the mandatory last block (+1, Section V-A: a new node
        "will at least store the last block ... the number of data stored
        in a new node is also one"), unexpired data assignments, permanent
        block assignments, and the recent-block FIFO cache.
        """
        ledger = self._ledgers.entries[node]
        return (
            1
            + ledger.unexpired_data(now)
            + ledger.blocks_stored
            + len(ledger.recent_cache)
        )

    def used_slots(self, node: int, now: float) -> int:
        """W(i) — storage slots in use, the FDC numerator (Eq. 1)."""
        return self.stored_items(node, now)

    def stake_storage_product(self, node: int, now: float) -> float:
        """U_i = S_i · Q_i."""
        return self.tokens(node) * self.stored_items(node, now)

    def mean_u(self, now: float) -> float:
        """Ū = (1/n) Σ U_i.

        An O(n) scan in ``node_ids`` order.  The order is part of the
        consensus: the float sum feeds ``target_b``, which every block
        records and hashes, so a running ``Σ S·Q`` maintained by
        ``apply_block`` would change digests.  It runs once per tip
        instead — the ledgers are shared and :meth:`amendment` memoises
        it on them.
        """
        total = 0
        for ledger in self._ledgers.entries.values():
            expiries = ledger.data_expiries
            total += ledger.tokens * (
                1
                + len(expiries)
                - bisect.bisect_right(expiries, now)
                + ledger.blocks_stored
                + len(ledger.recent_cache)
            )
        return total / len(self.node_ids)

    def amendment(self, now: float) -> float:
        """The B in force for the next race (Eq. 14).

        Memoised per ``now`` on the shared ledgers: every chain on one tip
        asks for B at the tip's timestamp, so the whole cluster pays for
        one Ū scan per tip.
        """
        ledgers = self._ledgers
        memo = ledgers.amendment_memo
        if memo is not None and memo[0] == now:
            return memo[1]
        value = compute_amendment(
            self.config.hit_modulus,
            len(self.node_ids),
            self.config.expected_block_interval,
            self.mean_u(now),
        )
        ledgers.amendment_memo = (now, value)
        return value

    def recent_cache_of(self, node: int) -> Tuple[int, ...]:
        return self._ledgers.entries[node].recent_cache

    # -- lifecycle -------------------------------------------------------------------

    def clone(self) -> "ChainState":
        """Independent copy: applying to or pruning one never shows in the other.

        The ledgers are immutable and simply shared; the two prunable
        maps are copied (their block-storing tuples and metadata items
        are immutable too).
        """
        other = ChainState.__new__(type(self))
        other.config = self.config
        other.node_ids = self.node_ids
        other._ledgers = self._ledgers
        other.metadata_index = dict(self.metadata_index)
        other.block_storing = dict(self.block_storing)
        other.blocks_applied = self.blocks_applied
        return other

    def prune_below(self, horizon: int, cutoff: float) -> int:
        """Drop derived-state payloads below the retention horizon.

        Removes block-storing entries for pruned indices and metadata
        items that expired at or before ``cutoff`` (the horizon block's
        timestamp) — neither feeds :meth:`ledger_digest`, so pruning is
        digest-neutral by construction.  The per-node ledgers (which DO
        feed the digest) are never touched, which is also why pruning in
        place is safe: the two maps belong to this state alone.  Returns
        the number of entries dropped.
        """
        stale_blocks = [index for index in self.block_storing if index < horizon]
        for index in stale_blocks:
            del self.block_storing[index]
        stale_items = [
            data_id
            for data_id, item in self.metadata_index.items()
            if item.expires_at <= cutoff
        ]
        for data_id in stale_items:
            del self.metadata_index[data_id]
        return len(stale_blocks) + len(stale_items)

    def ledger_digest(self) -> str:
        """Deterministic hash of the full derived ledger.

        Two nodes (or one run and its replay after a resume) derive the
        same digest iff their token balances, storage assignments, and
        recent caches agree exactly — ``repr`` keeps the float token
        balances bit-exact.
        """
        fields: List[object] = ["ledger-digest", self.blocks_applied]
        entries = self._ledgers.entries
        for node in self.node_ids:
            ledger = entries[node]
            fields.extend(
                (
                    node,
                    repr(ledger.tokens),
                    ",".join(repr(e) for e in ledger.data_expiries),
                    ledger.blocks_stored,
                    ",".join(map(str, ledger.recent_cache)),
                )
            )
        return hash_items(*fields).hex()

    def storage_snapshot(self, now: float) -> Dict[int, int]:
        """Used slots for every node (the Gini-coefficient input)."""
        return {node: self.used_slots(node, now) for node in self.node_ids}


def _default_genesis(node_ids: Tuple[int, ...], config: SystemConfig) -> Block:
    """The genesis block of a cluster, built once per process."""
    key = ("genesis", node_ids, config)
    genesis = _SHARED.get(key)
    if genesis is None:
        initial_b = compute_amendment(
            config.hit_modulus,
            len(node_ids),
            config.expected_block_interval,
            mean_u=config.initial_tokens * 1.0,
        )
        genesis = _SHARED[key] = make_genesis(node_ids, initial_b)
    return genesis


#: Whether a block's placements are what the solver derives from the
#: chain state before it (``EdgeNode`` builds one per topology view).
PlacementCheck = Callable[[Block, "ChainState"], bool]


class BlockOutcome(enum.Enum):
    """Result of offering a block to :meth:`Blockchain.consider_block`."""

    APPENDED = "appended"  # extended the tip
    DUPLICATE = "duplicate"  # already have this block
    STALE = "stale"  # competes with an existing block at ≤ tip height
    GAP = "gap"  # index beyond tip+1: blocks are missing (Section IV-D)


class Blockchain:
    """A validated chain with deterministic replayable state."""

    def __init__(
        self,
        node_ids: Sequence[int],
        config: SystemConfig,
        address_of: Dict[int, str],
        genesis: Optional[Block] = None,
    ):
        self.config = config
        self.node_ids = _id_tuple(node_ids)
        #: Node id → account address.  Read-only, and shared with every
        #: chain of the cluster that passed it in (never copied).
        self.address_of = address_of
        if genesis is None:
            genesis = _default_genesis(self.node_ids, config)
        if not genesis.is_genesis:
            raise ValueError("genesis block must have index 0")
        self.blocks: List[Block] = []
        #: The ledgers after each retained block, index-aligned with
        #: ``blocks``: ``_held[-1] is state._ledgers``.
        self._held: List[_Ledgers] = []
        self.state = ChainState._of_chain(self.node_ids, config)
        key = self._ledgers_key(genesis)
        self._extend(genesis, key, _SHARED.get(key))
        #: Index of the oldest retained body (0 until the chain prunes).
        self._first_retained: int = 0
        #: Replay state as of block ``_first_retained`` (None until pruned).
        self._anchor_state: Optional[ChainState] = None
        #: Pinned records at every checkpoint the chain has pruned to.
        self._checkpoints: Dict[int, CheckpointRecord] = {}
        #: External floor on pruning (e.g. the journaled height of a
        #: durable run): ``maybe_prune`` never drops bodies above it.
        self.prune_floor_limit: Optional[int] = None

    def _bare(self) -> "Blockchain":
        """An empty shell over our ids and config (no genesis applied)."""
        chain = type(self).__new__(type(self))
        chain.config = self.config
        chain.node_ids = self.node_ids
        chain.address_of = self.address_of
        chain.blocks = []
        chain._held = []
        chain.state = ChainState._of_chain(self.node_ids, self.config)
        chain._first_retained = 0
        chain._anchor_state = None
        chain._checkpoints = {}
        chain.prune_floor_limit = None
        return chain

    # -- basic accessors -----------------------------------------------------------

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.index

    @property
    def first_retained_index(self) -> int:
        """Oldest block index whose body is still in memory."""
        return self._first_retained

    @property
    def retained_blocks(self) -> int:
        """Number of block bodies held in memory (the hot footprint)."""
        return len(self.blocks)

    @property
    def checkpoints(self) -> Dict[int, CheckpointRecord]:
        """Pinned checkpoint records, keyed by checkpoint index."""
        return self._checkpoints

    def __len__(self) -> int:
        """Logical chain length (height + 1), pruned bodies included."""
        return self.height + 1

    def block_at(self, index: int) -> Block:
        first = self.first_retained_index
        if 0 <= index < first:
            raise PrunedBlockError(
                f"block {index} was pruned (bodies retained from {first})"
            )
        position = index - first
        if not (0 <= position < len(self.blocks)):
            raise IndexError(f"no block at index {index}")
        return self.blocks[position]

    def has_block(self, index: int) -> bool:
        """True when the body at ``index`` is retained in memory."""
        return self.first_retained_index <= index <= self.height

    def metadata_of(self, data_id: str) -> Optional[MetadataItem]:
        return self.state.metadata_index.get(data_id)

    def chain_digest(self) -> str:
        """Hash committing to the whole chain plus its derived ledger."""
        return hash_items(
            "chain-digest",
            self.height,
            self.tip.current_hash,
            self.state.ledger_digest(),
        ).hex()

    def search_metadata(
        self,
        data_type: Optional[str] = None,
        location: Optional[str] = None,
        producer: Optional[int] = None,
        created_after: Optional[float] = None,
        created_before: Optional[float] = None,
        include_expired: bool = True,
        now: Optional[float] = None,
    ) -> List[MetadataItem]:
        """Search the on-chain metadata index (Section III-B: "the user can
        search what it demands, and request the data item from the nodes
        that store it").

        String filters are case-insensitive substring matches (the paper's
        attributes are structured strings like ``AirQuality/PM2.5`` and
        ``NewYork,NY/40.72,-74.00``).  ``include_expired=False`` requires
        ``now`` and drops items past their valid time.  Results are sorted
        by creation time, newest first.
        """
        if not include_expired and now is None:
            raise ValueError("include_expired=False requires now")
        results: List[MetadataItem] = []
        for item in self.state.metadata_index.values():
            if data_type is not None and data_type.lower() not in item.data_type.lower():
                continue
            if location is not None and location.lower() not in item.location.lower():
                continue
            if producer is not None and item.producer != producer:
                continue
            if created_after is not None and item.created_at < created_after:
                continue
            if created_before is not None and item.created_at > created_before:
                continue
            if not include_expired and item.is_expired(now):
                continue
            results.append(item)
        return sorted(results, key=lambda item: -item.created_at)

    # -- validation ------------------------------------------------------------------

    def _check_extends_tip(self, block: Block) -> None:
        """The checks that depend on *this* chain: linkage, hash, roster."""
        parent = self.tip
        if not block.links_to(parent):
            raise ChainLinkError(
                f"block {block.index} does not link to tip {parent.index}"
            )
        if not block.hash_is_valid():
            raise ValidationError(f"block {block.index} hash mismatch")
        expected_address = self.address_of.get(block.miner)
        if expected_address is None or expected_address != block.miner_address:
            raise ConsensusError(
                f"block {block.index} miner address does not match node {block.miner}"
            )

    def validate_child(self, block: Block) -> None:
        """Validate ``block`` as the next block after the current tip.

        Checks chain linkage, the block hash, and the full PoS claim
        (re-derived hit, recorded B, and Eq. 9 at the block's timestamp).
        Raises a :class:`~repro.core.errors.ValidationError` subclass on
        the first violation.
        """
        self._check_extends_tip(block)
        parent = self.tip
        if self.config.consensus == "pow":
            # The PoW baseline's proof is the brute-forced hash itself; the
            # simulation samples attempt counts instead of grinding, so
            # there is nothing further to re-verify beyond linkage + hash.
            if block.timestamp <= parent.timestamp:
                raise ConsensusError(
                    f"block {block.index} timestamp not after parent"
                )
            return
        expected_pos_hash = compute_pos_hash(parent.pos_hash, block.miner_address)
        if block.pos_hash != expected_pos_hash:
            raise ConsensusError(f"block {block.index} POSHash mismatch")
        if block.hit != _hit_of(expected_pos_hash, self.config.hit_modulus):
            raise ConsensusError(f"block {block.index} hit mismatch")
        expected_b = self.state.amendment(parent.timestamp)
        if not math.isclose(block.target_b, expected_b, rel_tol=_B_TOLERANCE):
            raise ConsensusError(
                f"block {block.index} records B={block.target_b}, "
                f"expected {expected_b}"
            )
        elapsed = block.timestamp - parent.timestamp
        if elapsed <= 0:
            raise ConsensusError(f"block {block.index} timestamp not after parent")
        stake = self.state.tokens(block.miner)
        stored = self.state.stored_items(block.miner, parent.timestamp)
        if not satisfies_target(block.hit, stake, stored, elapsed, block.target_b):
            raise ConsensusError(
                f"block {block.index} does not satisfy h ≤ R "
                f"(h={block.hit}, S={stake}, Q={stored}, t={elapsed}, B={block.target_b})"
            )

    # -- growth -----------------------------------------------------------------------

    def _ledgers_key(self, block: Block) -> tuple:
        """Where ``_SHARED`` holds the ledgers after ``block`` on this prefix.

        Names this state's chain prefix and everything the fold reads
        from ``block`` — by its real hash, not the one it claims — so the
        entry is the value ``apply_block`` would build.
        """
        return (
            self.state._ledgers.prefix_id,
            block.compute_hash(),
            block._placement_digest(),
            self.node_ids,
            self.config,
        )

    def _extend(self, block: Block, key: tuple, ledgers: Optional[_Ledgers]) -> None:
        """Append ``block``; ``ledgers`` is what ``_SHARED`` held under ``key``."""
        if ledgers is None:
            self.state.apply_block(block)
            ledgers = _SHARED[key] = self.state._ledgers
        else:
            self.state._advance(block, ledgers)
        self.blocks.append(block)
        self._held.append(ledgers)

    def append_block(
        self, block: Block, placements: Optional[PlacementCheck] = None
    ) -> None:
        """Validate and append a tip-extending block.

        Linkage to *this* tip, the block hash and the miner's address in
        *this* roster are checked on every chain.  The PoS re-derivation
        and the fold into the per-node ledgers run once per process and
        chain prefix: the first chain to accept the block registers the
        ledgers after it in ``_SHARED``, and for every later chain on
        that prefix the entry stands for both the verdict and the value.
        ``placements``, when given, runs on every chain, hit or miss: it
        re-derives the block's storing nodes from this chain's state with
        the caller's topology view (see ``repro.core.validation``), which
        no shared entry can stand for, and a mismatch raises
        :class:`AllocationMismatchError`.  This chain's own metadata index
        and block-storing map are updated once all checks pass.
        """
        key = self._ledgers_key(block)
        ledgers = _SHARED.get(key)
        if ledgers is None:
            self.validate_child(block)
        else:
            self._check_extends_tip(block)
        if placements is not None and not placements(block, self.state):
            raise AllocationMismatchError(
                f"block {block.index} placements differ from the solver's"
            )
        self._extend(block, key, ledgers)

    def consider_block(
        self, block: Block, placements: Optional[PlacementCheck] = None
    ) -> BlockOutcome:
        """Classify an incoming block and append it when it extends the tip.

        ``GAP`` means the node is missing intermediate blocks and should
        trigger the recovery protocol; ``STALE`` is the first-received
        fork-choice rule at equal height (losers are simply dropped — the
        longest-chain rule takes over via :meth:`consider_chain` when a
        longer fork shows up).  ``placements`` is as for
        :meth:`append_block`.
        """
        if block.index <= self.height:
            if block.index < self.first_retained_index:
                # The body is pruned, so there is nothing to compare — and
                # a rewrite that deep is below a checkpoint anyway.
                return BlockOutcome.STALE
            existing = self.block_at(block.index)
            if existing.current_hash == block.current_hash:
                return BlockOutcome.DUPLICATE
            return BlockOutcome.STALE
        if block.index == self.height + 1:
            self.append_block(block, placements)
            return BlockOutcome.APPENDED
        return BlockOutcome.GAP

    def last_checkpoint(self) -> int:
        """Index of the newest checkpointed block (0 when disabled).

        With a checkpoint interval k, a block at a multiple of k becomes a
        checkpoint once it is buried at least ``checkpoint_lag`` blocks
        deep (default 2k); reorganisations below it are then refused
        (Section V-D: "inserting checkpoint block ... to force nodes
        working on the chain that has checkpoint blocks").  The lag keeps
        a node from checkpointing a block that live forks could still
        replace — without it, a briefly-forked node would lock itself out
        of the honest chain.
        """
        interval = self.config.checkpoint_interval
        if interval <= 0:
            return 0
        lag = (
            self.config.checkpoint_lag
            if self.config.checkpoint_lag is not None
            else 2 * interval
        )
        confirmed_height = self.height - lag
        if confirmed_height <= 0:
            return 0
        return (confirmed_height // interval) * interval

    def consider_chain(
        self, blocks: Sequence[Block], placements: Optional[PlacementCheck] = None
    ) -> bool:
        """Longest-chain rule: adopt ``blocks`` if valid and strictly longer.

        Without a lifecycle policy the candidate must be a full chain from
        genesis (the historical contract).  With lifecycle enabled, a
        pruned peer legitimately serves only its retained suffix, so an
        anchored candidate is also acceptable.  Either way its first block
        must match ours by hash — block hashes commit to the whole
        ancestor chain, so that one comparison covers every block below
        it — and the candidate must agree with our chain on every
        comparable block up to the last checkpoint; a mismatch at or below
        it raises :class:`CheckpointError`.

        Only the suffix we do not hold is validated: from the first
        candidate block that is not ``==`` to ours (a same-hash placement
        twin or a forged ``current_hash`` is one), appended to
        :meth:`_replica_at` the block below, each checked with
        ``placements`` as in :meth:`append_block`.  Our bodies below that
        point, the first block included, stay ours.  Returns True when
        the switch happened.
        """
        if not blocks or blocks[-1].index <= self.height:
            return False
        first = self.first_retained_index
        start = blocks[0].index
        if start != 0 and self.config.lifecycle is None:
            raise ValidationError("candidate chain must start at genesis")
        if start < first:
            # The candidate reaches below what we retain; agreement down
            # there is covered by the anchor hash, so trim to our floor.
            offset = first - start
            if offset >= len(blocks) or blocks[offset].index != first:
                raise ValidationError("candidate chain is not contiguous")
            blocks = blocks[offset:]
            start = first
        if start == 0:
            if blocks[0].current_hash != self.blocks[0].current_hash:
                raise ValidationError("candidate chain has a different genesis")
        else:
            if start > self.height:
                raise ValidationError(
                    f"candidate chain starts at {start}, above our tip "
                    f"{self.height}: cannot anchor it"
                )
            if blocks[0].current_hash != self.block_at(start).current_hash:
                if start <= self.last_checkpoint():
                    raise CheckpointError(
                        f"candidate chain rewrites checkpointed block {start} "
                        f"(checkpoint at {self.last_checkpoint()})"
                    )
                raise ValidationError(
                    f"candidate chain does not anchor to our block {start}"
                )
        checkpoint = self.last_checkpoint()
        for index in range(start + 1, checkpoint + 1):
            position = index - start
            if (
                position >= len(blocks)
                or blocks[position].current_hash != self.block_at(index).current_hash
            ):
                raise CheckpointError(
                    f"candidate chain rewrites checkpointed block {index} "
                    f"(checkpoint at {checkpoint})"
                )
        fork = start + 1
        while fork <= self.height and blocks[fork - start] == self.block_at(fork):
            fork += 1
        replica = self._replica_at(fork - 1)
        for block in blocks[fork - start :]:
            replica.append_block(block, placements)
        self.blocks = replica.blocks
        self._held = replica._held
        self.state = replica.state
        if first > 0:
            # Re-apply the in-memory pruning the pre-fork state carried.
            self.state.prune_below(first, self.blocks[0].timestamp)
        return True

    # -- lifecycle pruning --------------------------------------------------------

    def retention_horizon(self) -> int:
        """Newest checkpoint the lifecycle policy allows pruning up to."""
        from repro.lifecycle.spec import retention_horizon

        return retention_horizon(self.config, self.height)

    def maybe_prune(self) -> int:
        """Advance the pruning horizon if the policy says so.

        Called after every append on lifecycle-enabled nodes; returns the
        number of bodies dropped (0 when lifecycle is off or the horizon
        has not moved).  ``prune_floor_limit`` — when set by a durability
        layer — caps the horizon at the newest checkpoint the journal
        already holds, so a burst of fast blocks can never prune a body
        before it was persisted.
        """
        horizon = self.retention_horizon()
        limit = self.prune_floor_limit
        interval = self.config.checkpoint_interval
        if limit is not None and interval > 0:
            horizon = min(horizon, (limit // interval) * interval)
        if horizon <= self.first_retained_index:
            return 0
        return self.prune_to(horizon)

    def prune_to(self, horizon: int) -> int:
        """Drop bodies below checkpoint ``horizon``, pinning its record.

        The anchor replay state is advanced to the horizon *before* any
        body is dropped — over the bodies being pruned and the ledgers
        held for them, so nothing is folded again — a
        :class:`CheckpointRecord` is pinned from that at-checkpoint state,
        and only then are the prefix's bodies and ledgers released.  Chain
        digests are untouched: the tip, the height, and the cumulative
        ledger all survive pruning bit-for-bit.
        """
        first = self.first_retained_index
        if horizon <= first:
            return 0
        if horizon > self.last_checkpoint():
            raise ValueError(
                f"cannot prune to {horizon}: last checkpoint is "
                f"{self.last_checkpoint()}"
            )
        interval = self.config.checkpoint_interval
        if interval <= 0 or horizon % interval != 0:
            raise ValueError(f"prune horizon {horizon} is not a checkpoint index")
        dropped = horizon - first
        anchor = self._anchor_state or ChainState._of_chain(
            self.node_ids, self.config
        )
        for position in range(anchor.blocks_applied - first, dropped + 1):
            anchor._advance(self.blocks[position], self._held[position])
        anchor_block = self.blocks[dropped]
        self.checkpoints[horizon] = CheckpointRecord.pin(anchor_block, anchor)
        self.blocks = self.blocks[dropped:]
        self._held = self._held[dropped:]
        self._first_retained = horizon
        self._anchor_state = anchor
        cutoff = anchor_block.timestamp
        anchor.prune_below(horizon, cutoff)
        self.state.prune_below(horizon, cutoff)
        return dropped

    def _replica_at(self, index: int) -> "Blockchain":
        """A standalone chain positioned at our own block ``index``.

        Starts from a clone of the pruning anchor (or an empty state when
        unpruned) and advances it over our already-validated bodies onto
        the ledgers held for them — no block is validated or folded again.
        The base of suffix-only chain adoption and of allocation and
        honesty re-verification on pruned chains.
        """
        first = self.first_retained_index
        if not (first <= index <= self.height):
            raise PrunedBlockError(
                f"cannot rebuild state at {index}: bodies retained are "
                f"[{first}, {self.height}]"
            )
        replica = self._bare()
        replica._first_retained = first
        end = index - first + 1
        replica.blocks, replica._held = self.blocks[:end], self._held[:end]
        if self._anchor_state is not None:
            replica.state = self._anchor_state.clone()
        for position in range(replica.state.blocks_applied - first, end):
            replica.state._advance(self.blocks[position], self._held[position])
        return replica

    def missing_indices(self, up_to: int) -> List[int]:
        """Indices this chain lacks to reach height ``up_to``."""
        return list(range(self.height + 1, up_to + 1))
