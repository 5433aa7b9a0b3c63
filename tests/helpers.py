"""Shared builders for the test-suite: clusters, configs, seeded runs.

Integration tests used to copy-paste the same three blocks — a small
:class:`SystemConfig`, a ``build_cluster(...)`` call, and a seeded
``run_experiment(...)`` — with slightly different literals.  This module
is the single home for that boilerplate:

* :func:`make_config` — a quick-protocol-test config with overridable
  fields;
* :func:`make_cluster` — a wired cluster (PoS by default, PoW via
  ``consensus="pow"`` which also tunes difficulty to the node count);
* :func:`fixed_seed_run` — a full seeded experiment, memoised per
  ``cache_scope`` so a module's tests can share one multi-second run the
  way module-scoped fixtures used to, without re-declaring the fixture
  everywhere;
* :func:`integer_ufl` — a :class:`~repro.facility.problem.UFLProblem`
  from integer opening costs (``inf``: cannot open);
* :func:`solve_greedy` — one greedy solve from cold caches;
* :func:`reference_greedy` — the textbook greedy loop in floats, the
  perf guards' comparator for :mod:`repro.facility.greedy` (the
  correctness oracle is the ``Fraction`` greedy of :mod:`tests.spec`);
* :func:`reference_scalar_mult` — affine double-and-add, the differential
  oracle for the Jacobian kernel in :mod:`repro.crypto.keys`;
* :func:`reference_broadcast` — a tree broadcast that runs a fresh BFS
  and bills one hop at a time, the differential oracle for the per-epoch
  plan :meth:`repro.simnet.transport.Network.broadcast` reads;
* :func:`reference_satisfies_target` — Eq. 9 through five ``Fraction``
  objects, the differential oracle for the integer cross-multiplication
  in :func:`repro.core.pos.satisfies_target`;
* :func:`reference_hash_preimage` / :func:`reference_hash_items` — every
  field through ``_encode_field``, the differential oracle for the
  exact-type dispatch in :func:`repro.crypto.hashing.hash_preimage` (so
  for a stored block's header bytes) and ``hash_items``;
* :class:`ReferenceEngine` — the event heap that never purges its
  cancelled entries, the differential oracle for
  :class:`~repro.simnet.engine.EventEngine`;
* :class:`PrivateChain` (on a :class:`PrivateState`) /
  :func:`private_replay` / :func:`private_chains` — one private,
  in-place-mutated ledger per chain, the differential oracle for the
  shared ledgers of :mod:`repro.core.blockchain`;
* :func:`merkle_path` / :func:`merkle_path_root` — a leaf's
  authentication path and the root it recomputes, the oracle that
  :func:`repro.crypto.merkle.merkle_root` is the domain-separated,
  duplicate-padded binary tree (no protocol ships proofs, so ``src``
  keeps only the root);
* :func:`mine_next` — a valid PoS child block for any chain;
* :func:`reference_frame` / :func:`reference_unframe` — the two-``dumps``
  record encoder and the re-canonicalising CRC check the journal used to
  run, the differential oracle for :mod:`repro.lifecycle.framing`;
* :func:`reference_archive_bytes` / :func:`reference_load_archive` — an
  archive file spelt out field by field, and a whole-file loop that opens
  one, the differential oracles for :mod:`repro.lifecycle.archive`;
* :func:`stored_chain` — a lifecycle-pruned chain written through a
  :class:`~repro.persist.chainstore.ChainStore`, ready to compact.

The ``make_cluster`` / ``fixed_seed_run`` conftest fixtures re-export
these for tests that prefer fixture injection over imports.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import heapq
import json
import math
import shutil
import sys
import zlib
from collections import deque
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.account import Account
from repro.core.block import Block
from repro.core.blockchain import Blockchain, ChainState, _Ledgers, _NodeLedger
from repro.core.config import PAPER_CONFIG, LifecycleSpec, SystemConfig
from repro.core.errors import AllocationMismatchError, FormatVersionError, PersistError
from repro.core.metadata import create_metadata
from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
from repro.core.pow import pow_difficulty_for
from repro.crypto.hashing import _encode_field
from repro.crypto.keys import INFINITY, CurvePoint, N
from repro.facility.greedy import GreedySolver
from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open
from repro.lifecycle.archive import ARCHIVE_NAME
from repro.persist.chainstore import ChainStore
from repro.persist.resume import JOURNAL_NAME, MANIFEST_NAME, STORE_NAME
from repro.sim.cluster import EdgeCluster, build_cluster
from repro.sim.runner import (
    ChurnSpec,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.simnet.transport import Network

#: Hash rate matching the paper's handset (difficulty 4 at 25 s/block).
POW_TEST_HASH_RATE = 16**4 / 25.0


def make_config(**overrides) -> SystemConfig:
    """A small-scale config for quick protocol tests, field-overridable."""
    defaults = dict(
        storage_capacity=60,
        expected_block_interval=30.0,
        data_items_per_minute=2.0,
        recent_cache_capacity=5,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def make_pow_config(node_count: int, t0: float = 20.0, **overrides) -> SystemConfig:
    """The PoW-baseline config, difficulty tuned to the cluster size."""
    defaults = dict(
        consensus="pow",
        data_items_per_minute=0.0,
        expected_block_interval=t0,
        pow_hash_rate=POW_TEST_HASH_RATE,
        pow_difficulty=pow_difficulty_for(t0, node_count, POW_TEST_HASH_RATE),
    )
    defaults.update(overrides)
    return replace(PAPER_CONFIG, **defaults)


def make_cluster(
    node_count: int,
    *,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
    consensus: str = "pos",
    t0: Optional[float] = None,
    start: bool = True,
    run_until: Optional[float] = None,
    with_energy_meters: bool = False,
    node_classes: Optional[Dict[int, type]] = None,
    **config_overrides,
) -> EdgeCluster:
    """Build (and by default start) a wired simulation cluster.

    ``config_overrides`` land on :func:`make_config` (PoS) or
    :func:`make_pow_config` (PoW); pass an explicit ``config`` to bypass
    both.  ``run_until`` additionally advances the engine that far.
    """
    if config is None:
        if consensus == "pow":
            config = make_pow_config(
                node_count, **({"t0": t0} if t0 is not None else {}), **config_overrides
            )
        else:
            config = make_config(**config_overrides)
    cluster = build_cluster(
        node_count,
        config,
        seed=seed,
        with_energy_meters=with_energy_meters,
        node_classes=node_classes,
    )
    if start:
        cluster.start()
    if run_until is not None:
        cluster.engine.run_until(run_until)
    return cluster


def digest_run(
    node_count: int = 8,
    seed: int = 5,
    duration_minutes: float = 5.0,
    *,
    timeline_interval: float = 30.0,
    mobility_epoch_minutes: float = 10.0,
    churn: Optional[ChurnSpec] = None,
    config: Optional[SystemConfig] = None,
    **config_overrides,
) -> Tuple[str, str, Optional[dict]]:
    """One seeded run's full fingerprint: chain digest, ledger digest, verdict.

    ``tests/property/test_fastpath_equivalence.py`` holds the triple to
    the values recorded in ``tests/data/scenario_digests.json`` — digest
    equality pins every block, placement, and balance; verdict equality
    pins the sampled protocol timeline the monitors watched.
    Observability is enabled around the run (it is non-perturbing; the
    overhead guard proves that separately).
    """
    from repro import obs  # local import: obs state is process-global

    if config is None:
        config = make_config(**config_overrides)
    elif config_overrides:
        config = replace(config, **config_overrides)
    spec = ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
        mobility_epoch_minutes=mobility_epoch_minutes,
        churn=churn,
    )
    session = obs.enable(timeline_interval=timeline_interval)
    try:
        result = run_experiment(spec)
        verdict = session.monitors.verdict() if session.monitors is not None else None
    finally:
        obs.disable()
    chain = result.cluster.longest_chain_node().chain
    return chain.chain_digest(), chain.state.ledger_digest(), verdict


#: Memoised seeded runs, keyed by (cache scope, full spec).
_RUN_CACHE: Dict[tuple, ExperimentResult] = {}


def fixed_seed_run(
    node_count: int = 10,
    seed: int = 21,
    duration_minutes: float = 20.0,
    *,
    mobility_epoch_minutes: float = 10.0,
    churn: Optional[ChurnSpec] = None,
    config: Optional[SystemConfig] = None,
    cache_scope: Optional[str] = None,
    **config_overrides,
) -> ExperimentResult:
    """Run one seeded end-to-end experiment (deterministic given the args).

    With ``cache_scope`` set (the conftest fixture passes the requesting
    test module's name), identical invocations share one result — the
    replacement for per-module session fixtures around multi-second runs.
    Tests sharing a cached run must treat the cluster the way they treated
    a module-scoped fixture: advancing its engine is visible to the
    module's other tests.
    """
    if config is None:
        config = make_config(**config_overrides)
    elif config_overrides:
        config = replace(config, **config_overrides)
    spec = ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
        mobility_epoch_minutes=mobility_epoch_minutes,
        churn=churn,
    )
    if cache_scope is None:
        return run_experiment(spec)
    key = (cache_scope, spec.node_count, spec.seed, spec.duration_minutes,
           spec.mobility_epoch_minutes, spec.churn, spec.config)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_experiment(spec)
    return _RUN_CACHE[key]


def integer_ufl(facility_costs, connection_costs) -> UFLProblem:
    """An instance whose opening costs are integers, ``inf`` for a
    facility that cannot open."""
    facility = np.asarray(facility_costs, dtype=float)
    closed = facility == math.inf
    return UFLProblem(
        np.where(closed, 0.0, facility), (~closed).astype(float), connection_costs
    )


def solve_greedy(problem: UFLProblem) -> UFLSolution:
    """One greedy solve from cold caches: a fresh :class:`GreedySolver`.
    Raises ``ValueError`` if the instance is infeasible."""
    return GreedySolver().solve(problem)


def reference_greedy(problem: UFLProblem) -> UFLSolution:
    """The textbook greedy loop: the perf guards' comparator for :class:`GreedySolver`.

    Every round re-sorts every facility's unassigned clients and scans for
    the cheapest star, each ratio ``(num + den·Σc) / (den·k)`` divided
    once from exact integers, so plain ``<`` decides as
    :func:`tests.spec.greedy` does.  The production solver must return the
    same solutions, many times faster.

    Raises
    ------
    ValueError
        If the instance is infeasible (some client cannot reach any
        openable facility with finite cost).
    """
    if not problem.is_feasible():
        raise ValueError("infeasible UFL instance: a client has no reachable facility")

    num_facilities = problem.num_facilities
    num_clients = problem.num_clients
    connection = problem.connection_costs

    unassigned: Set[int] = set(range(num_clients))
    open_set: List[int] = []
    opened = np.zeros(num_facilities, dtype=bool)

    while unassigned:
        best_ratio = math.inf
        best_choice: Optional[Tuple[int, List[int]]] = None
        unassigned_list = sorted(unassigned)
        for facility in range(num_facilities):
            if opened[facility]:
                num, den = 0.0, 1.0
            else:
                num, den = problem.opening_num[facility], problem.opening_den[facility]
            if not den:
                continue
            costs = connection[facility, unassigned_list]
            finite_mask = np.isfinite(costs)
            if not finite_mask.any():
                continue
            finite_clients = [
                unassigned_list[idx] for idx in np.flatnonzero(finite_mask)
            ]
            finite_costs = costs[finite_mask]
            order = np.argsort(finite_costs, kind="stable")
            prefix = np.cumsum(finite_costs[order])
            counts = np.arange(1, len(prefix) + 1)
            ratios = (num + den * prefix) / (den * counts)
            k = int(np.argmin(ratios))
            ratio = float(ratios[k])
            if ratio < best_ratio:
                star_clients = [finite_clients[idx] for idx in order[: k + 1]]
                best_ratio = ratio
                best_choice = (facility, star_clients)
        if best_choice is None:
            raise ValueError("greedy could not serve all clients (infeasible)")
        facility, star_clients = best_choice
        opened[facility] = True
        if facility not in open_set:
            open_set.append(facility)
        unassigned.difference_update(star_clients)

    # Final improvement: every client connects to its cheapest open facility.
    return assign_to_open(problem, open_set)


def reference_scalar_mult(point: CurvePoint, scalar: int) -> CurvePoint:
    """Affine double-and-add: differential oracle for ``CurvePoint.__mul__``.

    This is ``CurvePoint.__mul__`` as it stood before the Jacobian kernel
    replaced it, kept verbatim (``self`` spelled ``point``): ~380 affine
    ``__add__`` calls, each with its own modular inversion and on-curve
    check.  The production kernel must return the same point.
    """
    if scalar % N == 0 or point.is_infinity:
        return INFINITY
    if scalar < 0:
        return reference_scalar_mult(-point, -scalar)
    result = INFINITY
    addend = point
    k = scalar
    while k:
        if k & 1:
            result = result + addend
        addend = addend + addend
        k >>= 1
    return result


def reference_broadcast(
    network: Network,
    source: int,
    payload: Any,
    size_bytes: int,
    category: str,
    mode: str = "tree",
) -> int:
    """``Network.broadcast`` as it was before the per-epoch plan: a fresh
    BFS per call (neighbours ascending, first discoverer the parent), one
    ``record_hop`` per tree edge, one delivery batch per run of equal
    arrival instants, and in ``"flood"`` mode one more ``record_hop`` per
    redundant copy."""
    if not network.is_online(source):
        network.messages_dropped += 1
        return 0
    parents = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in network.topology.neighbors(node):
                if neighbor not in parents:
                    parents[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = next_frontier
    depth: Dict[int, int] = {source: 0}
    ordered = [source]
    children: Dict[int, List[int]] = {}
    for node, parent in parents.items():
        if node != source:
            children.setdefault(parent, []).append(node)
    index = 0
    while index < len(ordered):
        node = ordered[index]
        index += 1
        for child in sorted(children.get(node, [])):
            depth[child] = depth[node] + 1
            ordered.append(child)
    pending: List[tuple] = []
    pending_latency = 0.0
    for node in ordered[1:]:
        network.trace.record_hop(parents[node], node, size_bytes, category)
        latency = network.channel.path_latency(size_bytes, depth[node])
        if pending and latency != pending_latency:
            network.engine.call_at_batch(network.engine.now + pending_latency, pending)
            pending = []
        pending.append((network._deliver, (node, source, payload, category)))
        pending_latency = latency
    if pending:
        network.engine.call_at_batch(network.engine.now + pending_latency, pending)
    if mode == "flood":
        for node in ordered:
            parent = parents[node]
            for neighbor in network.topology.neighbors(node):
                if node == source or neighbor != parent:
                    if neighbor not in parents:
                        continue
                    if parents.get(neighbor) == node:
                        continue
                    network.trace.record_hop(node, neighbor, size_bytes, category)
    network.messages_sent += 1
    return len(ordered) - 1


def reference_satisfies_target(
    hit: int, stake: float, stored: float, elapsed: float, amendment: float
) -> bool:
    """Eq. 9 through five Fractions: differential oracle for ``satisfies_target``.

    The body of ``repro.core.pos.satisfies_target`` before it
    cross-multiplied integer ratios, minus the obs counters.  The
    production verdict — and the exception NaN or infinity raise — must
    equal it.
    """
    if elapsed < 0:
        raise ValueError("elapsed time cannot be negative")
    target = (
        Fraction(stake) * Fraction(stored) * Fraction(elapsed) * Fraction(amendment)
    )
    return Fraction(hit) <= target


def reference_hash_preimage(*fields: Any) -> bytes:
    """Every field through ``_encode_field``: oracle for ``hash_preimage``
    (and so for ``Block.header_bytes``, which stored blocks lead with).

    The body of ``repro.crypto.hashing.hash_items`` before it dispatched
    on exact type; the production bytes — and the exception a field
    raises — must equal it.
    """
    parts = []
    for field in fields:
        encoded = _encode_field(field)
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def reference_hash_items(*fields: Any) -> bytes:
    """SHA-256 of :func:`reference_hash_preimage`: oracle for ``hash_items``."""
    return hashlib.sha256(reference_hash_preimage(*fields)).digest()


class _ReferenceEvent:
    __slots__ = ("key", "calls", "cancelled")

    def __init__(self, key: Tuple[float, int], calls: tuple):
        self.key = key
        self.calls = calls
        self.cancelled = False

    def __lt__(self, other: "_ReferenceEvent") -> bool:
        return self.key < other.key


class ReferenceHandle:
    def __init__(self, event: _ReferenceEvent):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class ReferenceEngine:
    """The purge-free heap: differential oracle for ``EventEngine``.

    The scheduling rules ``EventEngine`` had before it counted and purged
    its cancelled entries, restated without tracing: events pop in
    ``(time, sequence)`` order, a batch runs its calls off one pop, and a
    cancelled event stays in the heap until it comes due and is skipped.
    The production engine must execute the same callbacks in the same
    order, with the same ``events_processed`` and ``now``.
    """

    def __init__(self) -> None:
        self._queue: List[_ReferenceEvent] = []
        self._sequence = 0
        self.now = 0.0
        self.events_processed = 0

    def _push(self, when: float, calls: tuple) -> ReferenceHandle:
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        event = _ReferenceEvent((when, self._sequence), calls)
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return ReferenceHandle(event)

    def call_at(self, when: float, callback, *args) -> ReferenceHandle:
        return self._push(when, ((callback, args),))

    def call_at_batch(self, when: float, calls) -> ReferenceHandle:
        return self._push(when, tuple((callback, tuple(args)) for callback, args in calls))

    def peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].key[0] if self._queue else None

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.key[0]
            for callback, args in event.calls:
                self.events_processed += 1
                callback(*args)
            return True
        return False

    def run_until(self, deadline: float) -> None:
        if deadline < self.now:
            raise ValueError("deadline is in the past")
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
        self.now = deadline

    def clear(self) -> None:
        self._queue.clear()


def merkle_leaf(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def merkle_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def merkle_path(leaves: Sequence[bytes], index: int) -> List[bytes]:
    """Sibling digests, bottom-up, of the leaf at ``index``."""
    level = [merkle_leaf(leaf) for leaf in leaves]
    siblings = []
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        siblings.append(level[index ^ 1])
        level = [merkle_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        index //= 2
    return siblings


def merkle_path_root(leaf: bytes, index: int, siblings: Sequence[bytes]) -> bytes:
    """The root that ``leaf`` at ``index`` and its path recompute."""
    digest = merkle_leaf(leaf)
    for sibling in siblings:
        digest = merkle_node(digest, sibling) if index % 2 == 0 else merkle_node(sibling, digest)
        index //= 2
    return digest


def mine_next(chain, accounts, miner, metadata_items=(), storing=(0,),
              recent=(), timestamp=None):
    """Construct a valid child block for ``miner``."""
    parent = chain.tip
    address = accounts[miner].address
    state = chain.state
    hit = compute_hit(parent.pos_hash, address, chain.config.hit_modulus)
    amendment = state.amendment(parent.timestamp)
    stake = state.tokens(miner)
    stored = state.stored_items(miner, parent.timestamp)
    delay = mining_delay(hit, stake, stored, amendment)
    return Block(
        index=parent.index + 1,
        timestamp=parent.timestamp + delay if timestamp is None else timestamp,
        previous_hash=parent.current_hash,
        pos_hash=compute_pos_hash(parent.pos_hash, address),
        miner=miner,
        miner_address=address,
        hit=hit,
        target_b=amendment,
        metadata_items=tuple(metadata_items),
        storing_nodes=tuple(storing),
        previous_storing_nodes=tuple(state.block_storing.get(parent.index, ())),
        recent_cache_nodes=tuple(recent),
    )


class PrivateState(ChainState):
    """A ledger mutated in place: differential oracle for ``_Ledgers.after``.

    ``apply_block`` is ``ChainState.apply_block`` as it stood before the
    per-node ledgers became a shared immutable value — kept verbatim on a
    set of ledgers this state alone holds, a fresh deep copy per block so
    the chain can hold the ledgers after each one.  The copy-on-write fold
    in production must leave every node with the same balances.
    """

    def __init__(self, node_ids, config):
        super().__init__(node_ids, config)
        self._own(self._ledgers)

    def _own(self, ledgers) -> None:
        self._ledgers = _Ledgers(
            {
                node: _NodeLedger(
                    tokens=ledger.tokens,
                    data_expiries=list(ledger.data_expiries),
                    blocks_stored=ledger.blocks_stored,
                    recent_cache=deque(ledger.recent_cache),
                )
                for node, ledger in ledgers.entries.items()
            },
            b"private",
        )

    def clone(self) -> "PrivateState":
        other = super().clone()
        other._own(self._ledgers)
        return other

    def apply_block(self, block: Block) -> None:
        if block.index != self.blocks_applied:
            raise ValueError(
                f"blocks must be applied in order (expected {self.blocks_applied}, "
                f"got {block.index})"
            )
        self._own(self._ledgers)
        _ledger = self._ledgers.entries
        self.block_storing[block.index] = block.storing_nodes
        if not block.is_genesis:
            miner = _ledger.get(block.miner)
            if miner is not None:
                miner.tokens += self.config.mining_incentive
            for item in block.metadata_items:
                self.metadata_index[item.data_id] = item
                for node in item.storing_nodes:
                    ledger = _ledger.get(node)
                    if ledger is None:
                        continue
                    bisect.insort(ledger.data_expiries, item.expires_at)
                    ledger.tokens += self.config.storage_incentive
            for node in block.storing_nodes:
                ledger = _ledger.get(node)
                if ledger is None:
                    continue
                ledger.blocks_stored += 1
                ledger.tokens += self.config.storage_incentive
            for node in block.recent_cache_nodes:
                ledger = _ledger.get(node)
                if ledger is None:
                    continue
                ledger.recent_cache.append(block.index)
                while len(ledger.recent_cache) > self.config.recent_cache_capacity:
                    ledger.recent_cache.popleft()  # FIFO (Section IV-C)
                ledger.tokens += self.config.storage_incentive
            # Periodic S-rescaling keeps B numerically sane (Section V-B).
            if block.index % self.config.token_rescale_interval == 0:
                for ledger in _ledger.values():
                    ledger.tokens *= self.config.token_rescale_ratio
        self.blocks_applied += 1


class PrivateChain(Blockchain):
    """One private ledger per chain: differential oracle for shared ledgers.

    This is ``Blockchain`` as it stood before chains shared what they
    derive: every chain owns its ledgers (a :class:`PrivateState`),
    re-runs the full ``validate_child`` for every block and folds it in
    place.  Production chains must answer every query exactly as this
    one does.
    """

    def __init__(self, node_ids, config, address_of, genesis=None):
        super().__init__(node_ids, config, address_of, genesis=genesis)
        self.state = PrivateState(self.node_ids, config)
        self.state.apply_block(self.blocks[0])
        self._held = [self.state._ledgers]

    def append_block(self, block: Block, placements=None) -> None:
        self.validate_child(block)
        if placements is not None and not placements(block, self.state):
            raise AllocationMismatchError(f"block {block.index} placements differ")
        self.state.apply_block(block)
        self.blocks.append(block)
        self._held.append(self.state._ledgers)

    def _replica_at(self, index: int) -> "PrivateChain":
        replica = super()._replica_at(index)
        replica.state.__class__ = PrivateState  # folds privately from here on
        return replica


def private_replay(
    blocks: Sequence[Block],
    node_ids: Sequence[int],
    config: SystemConfig,
    address_of: Dict[int, str],
) -> PrivateChain:
    """Replay ``blocks`` (genesis first) on a chain that shares nothing."""
    chain = PrivateChain(node_ids, config, address_of, genesis=blocks[0])
    for block in blocks[1:]:
        chain.append_block(block)
    return chain


@contextlib.contextmanager
def private_chains() -> Iterator[None]:
    """Run the enclosed code with every chain a :class:`PrivateChain`.

    Rebinds the name ``Blockchain`` in every loaded ``repro`` module
    (nodes and clusters build their chains through it), so a whole
    cluster built inside the block is the per-node-ledger world end to
    end.
    """
    patched = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.") and getattr(module, "Blockchain", None) is Blockchain
    ]
    for module in patched:
        module.Blockchain = PrivateChain
    try:
        yield
    finally:
        for module in patched:
            module.Blockchain = Blockchain


# -- storage-plane oracles and builders ------------------------------------------------


def _reference_canonical(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _reference_crc_of(body: Dict[str, Any]) -> str:
    return format(zlib.crc32(_reference_canonical(body)) & 0xFFFFFFFF, "08x")


def reference_frame(body: Dict[str, Any]) -> bytes:
    """One journal record line, encoded as it was before the
    writer composed it from its members: ``dumps`` the whole record for
    the CRC, then ``dumps`` it again with the CRC in."""
    body = dict(body)
    body["crc"] = _reference_crc_of(body)
    return _reference_canonical(body) + b"\n"


def reference_unframe(line: bytes) -> Dict[str, Any]:
    """The record a line (newline stripped) holds, CRC-checked as it was
    before the reader checked the bytes it read: parse, re-canonicalise,
    compare.  Raises :class:`PersistError` where that check did."""
    try:
        body = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise PersistError(f"record is not valid JSON: {error}") from error
    if not isinstance(body, dict):
        raise PersistError("record is not an object")
    crc = body.pop("crc", None)
    if crc != _reference_crc_of(body):
        raise PersistError("record CRC mismatch")
    return body


def reference_recover_journal(path: Path) -> Dict[str, Any]:
    """What a journal file recovers to, by the whole-file loop the journal
    ran before it streamed: read every byte, split at newlines, keep each
    decoded record.  Returns the verdict as a dict of the
    :class:`~repro.persist.journal.JournalRecovery` fields."""
    from repro.persist.journal import _decode_line

    verdict: Dict[str, Any] = {
        "records": [],
        "valid_bytes": 0,
        "dropped_records": 0,
        "torn_tail_bytes": 0,
        "corrupt": False,
        "reason": None,
    }
    if not path.exists():
        return verdict
    raw = path.read_bytes()
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            verdict["torn_tail_bytes"] = len(raw) - offset
            verdict["reason"] = "torn trailing record (no newline)"
            break
        try:
            record = _decode_line(raw[offset:newline], len(verdict["records"]))
        except PersistError as error:
            # A record of another format version is never a torn write.
            foreign = isinstance(error, FormatVersionError)
            if newline + 1 >= len(raw) and not foreign:
                verdict["torn_tail_bytes"] = len(raw) - offset
                verdict["reason"] = f"torn final record: {error}"
            else:
                remainder = raw[offset:]
                verdict["dropped_records"] = remainder.count(b"\n")
                if not remainder.endswith(b"\n"):
                    verdict["torn_tail_bytes"] = (
                        len(remainder) - remainder.rfind(b"\n") - 1
                    )
                verdict["corrupt"] = True
                verdict["reason"] = (
                    str(error) if foreign else f"mid-journal corruption: {error}"
                )
            break
        verdict["records"].append(record)
        offset = newline + 1
        verdict["valid_bytes"] = offset
    return verdict


#: The header a format-v3 archive file starts with: magic, then version.
ARCHIVE_HEADER = b"REPROARC" + (3).to_bytes(4, "big")


def archive_record(block_hash: str, data: bytes, tail: bytes = b"") -> bytes:
    """One archive record, spelt out field by field from the layout in
    :mod:`repro.lifecycle.archive`: length, the length's CRC-32, hash,
    size, the block bytes ``data``, the checkpoint bytes ``tail``, and a
    CRC-32 of all of it — whatever the fields hold."""
    body = bytes.fromhex(block_hash) + len(data).to_bytes(4, "big") + data + tail
    length = len(body).to_bytes(4, "big")
    record = length + zlib.crc32(length).to_bytes(4, "big") + body
    return record + zlib.crc32(record).to_bytes(4, "big")


def reference_archive_record(block: Block, checkpoint: Any = None) -> bytes:
    """The archive record of ``block`` and the checkpoint record pinned
    with it: its stored bytes, and the record's canonical JSON."""
    from repro.core.serialization import block_to_bytes

    tail = b"" if checkpoint is None else _reference_canonical(checkpoint.to_dict())
    return archive_record(block.current_hash, block_to_bytes(block), tail)


def reference_archive_bytes(pairs: Sequence[Tuple[Block, Any]]) -> bytes:
    """The whole archive file of ``(block, checkpoint)`` pairs."""
    return ARCHIVE_HEADER + b"".join(reference_archive_record(*pair) for pair in pairs)


def archive_record_ends(data: bytes) -> List[int]:
    """Where each whole record of archive file bytes ``data`` ends, by
    their lengths (the records are taken as undamaged)."""
    ends: List[int] = []
    offset = len(ARCHIVE_HEADER)
    while offset + 8 <= len(data):
        end = offset + 12 + int.from_bytes(data[offset : offset + 4], "big")
        if end > len(data):
            break
        ends.append(end)
        offset = end
    return ends


def _reference_refuse_header(found: bytes, path: Path) -> None:
    """Raise what opening raises for an archive file that starts with
    ``found`` instead of the v3 header: a JSON-lines archive (v1, v2) or
    another version's header is :class:`FormatVersionError`, naming the
    version; anything else is damage."""
    if found.startswith(b"{"):
        with open(path, "rb") as handle:
            line = handle.readline(1 << 20)
        try:
            version = json.loads(line).get("v")
        except (ValueError, AttributeError, RecursionError):
            version = None
        if type(version) is not int:
            version = "1 or v2"
        raise FormatVersionError(f"archive {path} has format v{version}; this build reads v3")
    if len(found) == 12 and found.startswith(b"REPROARC"):
        raise FormatVersionError(
            f"archive {path} has format v{int.from_bytes(found[8:], 'big')}; "
            "this build reads v3"
        )
    raise PersistError(f"archive {path} is not a block archive")


def reference_load_archive(path: Path) -> Dict[str, Any]:
    """What opening an archive file finds, by a whole-file loop (without
    the archive's truncation of a torn tail): every record offset, every
    pinned checkpoint record, the truncation point and the torn bytes.
    Raises :class:`PersistError` where opening does — another format,
    mid-file damage or an invalid checkpoint.  Every field is checked
    here from the layout in :mod:`repro.lifecycle.archive`, with none of
    its code."""
    from repro.lifecycle.checkpoint import CheckpointRecord

    verdict: Dict[str, Any] = {
        "offsets": [],
        "checkpoints": {},
        "length": 0,
        "torn_tail_bytes": 0,
    }
    if not path.exists():
        return verdict
    raw = path.read_bytes()
    if not raw.startswith(ARCHIVE_HEADER):
        if not ARCHIVE_HEADER.startswith(raw):
            _reference_refuse_header(raw[: len(ARCHIVE_HEADER)], path)
        verdict["torn_tail_bytes"] = len(raw)  # empty, or a torn header
        return verdict
    offset = verdict["length"] = len(ARCHIVE_HEADER)
    expected = 0
    while offset < len(raw):
        if offset + 8 > len(raw):
            verdict["torn_tail_bytes"] = len(raw) - offset
            break
        length_bytes = raw[offset : offset + 4]
        length = int.from_bytes(length_bytes, "big")
        end = offset + 12 + length
        if zlib.crc32(length_bytes) != int.from_bytes(
            raw[offset + 4 : offset + 8], "big"
        ) or not 36 <= length <= 1 << 26:
            error = f"archive record at byte {offset} has a damaged length"
            end = offset + 8
        elif end > len(raw):
            verdict["torn_tail_bytes"] = len(raw) - offset
            break
        else:
            record = raw[offset:end]
            size = int.from_bytes(record[40:44], "big")
            if zlib.crc32(record[:-4]) != int.from_bytes(record[-4:], "big"):
                error = f"archive record {expected} CRC mismatch"
            elif not 0 < size <= len(record) - 48:
                error = f"archive record {expected} carries no block"
            else:
                error = ""
        if error:
            if end >= len(raw):
                verdict["torn_tail_bytes"] = len(raw) - offset
                break
            raise PersistError(f"archive {path} is corrupt mid-file: {error}")
        verdict["offsets"].append(offset)
        tail = record[44 + size : -4]
        if tail:
            try:
                checkpoint = CheckpointRecord.from_dict(json.loads(tail))
            except (KeyError, TypeError, ValueError, RecursionError) as error:
                raise PersistError(
                    f"archive {path} checkpoint record at {expected} is invalid: {error}"
                ) from error
            verdict["checkpoints"][checkpoint.index] = checkpoint
        expected += 1
        offset = end
        verdict["length"] = offset
    return verdict


def durable_files_only(source: Path, target: Path) -> Path:
    """Copy what a resume reads — manifest, journal, chain store and cold
    archive — into ``target``, and nothing else."""
    target.mkdir()
    for name in (MANIFEST_NAME, JOURNAL_NAME, STORE_NAME, ARCHIVE_NAME):
        if (source / name).exists():
            shutil.copy(source / name, target / name)
    return target


def stored_chain(
    store_path: Path, blocks: int, item_every: int = 0
) -> Tuple[Blockchain, ChainStore]:
    """A three-node lifecycle chain (checkpoint every 8, lag 8, retain 16)
    and the open store it was written through.

    Mints ``blocks`` PoS blocks through ``append_block`` → ``put_block`` →
    ``maybe_prune`` (the write path of a durable lifecycle run, minus the
    journal); nothing is compacted yet, so the store holds every block
    and ``chain.first_retained_index`` is where compaction may go.  Every
    ``item_every``-th block packs one signed metadata item."""
    nodes = 3
    config = SystemConfig(
        expected_block_interval=10.0,
        checkpoint_interval=8,
        checkpoint_lag=8,
        lifecycle=LifecycleSpec(retain_blocks=16),
    )
    accounts = {node: Account.for_node(55, node) for node in range(nodes)}
    chain = Blockchain(
        list(range(nodes)), config, {n: a.address for n, a in accounts.items()}
    )
    store = ChainStore(store_path)
    store.put_block(chain.blocks[0])
    for step in range(blocks):
        miner = step % nodes
        items = ()
        if item_every and (step + 1) % item_every == 0:
            created = create_metadata(accounts[miner], miner, step, chain.tip.timestamp)
            items = (created.with_storing_nodes((miner,)),)
        block = mine_next(chain, accounts, miner, metadata_items=items, storing=(miner,))
        chain.append_block(block)
        store.put_block(block)
        chain.maybe_prune()
    return chain, store
