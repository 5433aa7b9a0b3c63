"""Perf-regression guards for the greedy UFL solver, the curve kernel, the
shared derived ledger and the storage plane.

The equivalence suite (``tests/property/test_fastpath_equivalence.py``)
proves :class:`~repro.facility.greedy.GreedySolver` decides Eq. 3 as the
exact textbook greedy of ``tests/spec.py`` does; this module proves it
is actually *fast* against the same textbook loop in floats
(:func:`tests.helpers.reference_greedy`, whose ratios are exact integers
divided once) — the reason that loop lives under ``tests/`` and not in
the solver.  A 200-item replay (fixed connection matrix, one
facility-cost bump per step — the exact access pattern the simulation
produces between mobility epochs) must run at least 5× faster through
one long-lived solver than through 200 ``reference_greedy`` calls.

That replay is dominated by the greedy's first round (30 nodes, a star
or two per solve).  The second guard is the large-cluster shape, where
the later rounds are the cost: a 200-node hop-count instance built by
the real cost builder, 10–30 replicas and 155–200 textbook greedy rounds
per solve (the solver takes 2–4: one batch of one-client stars, then a
hand step or two that gives every remaining client to an open replica),
replayed with the loads bumped where each placement landed.  There the
solver must be at least 20× faster per solve.

The third guard is the secp256k1 kernel: ``sign`` (one fixed-base
multiplication through the Jacobian kernel, a single inversion) must be
at least 10× faster than the same ECDSA arithmetic with the affine
double-and-add of :func:`tests.helpers.reference_scalar_mult`.

The assertions are *ratios* of wall-clock times on the same machine in
the same process, so they are robust to absolute machine speed; set
``REPRO_SKIP_PERF=1`` to skip them outright on noisy shared runners.

The fourth guard needs no clock and is never skipped: on a 120-node
cluster the ledger fold (``ChainState.apply_block``) and the O(n) ``Ū``
scan (``ChainState.mean_u``) must run once per chain prefix — per
distinct block, plus the blocks a chain adoption replays — not once per
node per block, which is two orders of magnitude more.

The fifth guard is a count too: compacting 256 blocks into the cold
archive opens the archive once, fsyncs it once, builds no block and
frames each record once, putting only pinned checkpoint records through
JSON (one open, one fsync and two whole-record ``json.dumps`` *per
block* before compaction became a batch; a decode, re-hash and
re-encode of every block before it moved stored bytes), and
a 64-block ranged fetch
and a full integrity walk open it once each (once per block before).

The last two are counts as well.  2 000 routes in one epoch of a
400-node cluster walk each endpoint's adjacency at most once per BFS
level their routes need, plus one walk per route to find where the two
endpoints' trees meet (a bidirectional search per route walks both
fringes every time).  50 placements in one topology epoch build the RDC
matrix once and hash no matrix (one build and one blake2b of it per
placement before).

The greedy's rounds are counted too (``GreedySolver.rounds``).  A fresh
400-node cluster, where a node alone is every node's best star, opens
all 400 nodes in at most 3 rounds (400 before the singleton batch); a
30-node two-hub instance stops at its second and last opening (10
rounds before the tail exit, now the hand step's all-clients case); and
the 200-node replay takes at most one round per replica it opens
(5.6–16.5 per replica while each round handed one client).  All three
still equal the textbook loop.

The last guard weighs memory, with ``tracemalloc`` (bytes, no clock, so
never skipped).  A cluster's node-id tuple, address book and mobility
ranges exist once per cluster: every chain and ``ChainState`` holds the
same objects, also after a pickle round-trip, and the traced bytes a
freshly built cluster holds per node grow at most 1.5× from 100 to 400
nodes (2.8× while each node kept its own copies).
"""

from __future__ import annotations

import builtins
import gc
import hashlib
import json
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import allocation
from repro.core.allocation import AllocationEngine
from repro.core.block import Block
from repro.core.blockchain import Blockchain, ChainState
from repro.core.config import PAPER_CONFIG
from repro.crypto.keys import GENERATOR, N, PrivateKey
from repro.crypto.signature import Signature, _deterministic_nonce, _message_scalar, sign
from repro.facility import costs
from repro.facility.costs import build_storage_ufl
from repro.facility.greedy import GreedySolver
from repro.facility.problem import UFLProblem
from repro.lifecycle import ARCHIVE_NAME, BlockArchive
from repro.lifecycle import archive as archive_module
from repro.persist.resume import STORE_NAME
from repro.sim.cluster import build_cluster
from repro.sim.runner import ChurnSpec, ExperimentSpec, run_experiment
from repro.simnet.topology import Topology, connected_random_positions
from tests.helpers import (
    integer_ufl,
    make_config,
    reference_greedy,
    reference_scalar_mult,
    stored_chain,
)

pytestmark = pytest.mark.fastpath

#: The wall-clock ratio guards; the count guards at the bottom need none.
timing_guard = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1: perf-regression guards disabled",
)

#: Replay length and problem size: 200 placements over a 30-node cluster,
#: matching the dominant shape of a long steady-state simulation window.
REPLAY_STEPS = 200
SIZE = 30

#: Required speedup.  Calibrated headroom: the solver measures ~9.5× on
#: this replay; 5× is the regression floor.
MIN_SPEEDUP = 5.0


def _replay_problems():
    """The 200-instance replay: fixed RDC matrix, drifting FDC vector (a
    facility's cost moves to 101–107 % of its base, in hundredths)."""
    rng = np.random.default_rng(7)
    conn = rng.integers(1, 51, size=(SIZE, SIZE)).astype(float)
    base_costs = rng.integers(10, 201, size=SIZE).astype(float)
    hundredths = np.full(SIZE, 100.0)
    num = 100.0 * base_costs
    problems = []
    for step in range(REPLAY_STEPS):
        problems.append(UFLProblem(num.copy(), hundredths, conn))
        bump = step % SIZE
        num[bump] = base_costs[bump] * (100 + (step % 7) + 1)
    return problems


def _timed(solver, problems):
    start = time.perf_counter()
    solutions = [solver(problem) for problem in problems]
    return time.perf_counter() - start, solutions


@timing_guard
def test_incremental_replay_is_5x_faster_than_greedy():
    problems = _replay_problems()
    # Warm-up pass keeps import/JIT-ish one-time numpy costs out of the
    # measured region for both contenders.
    reference_greedy(problems[0])
    greedy_time, greedy_solutions = _timed(reference_greedy, problems)

    solver = GreedySolver()
    solver.solve(problems[0])  # warm the epoch caches once
    fast_time, fast_solutions = _timed(solver.solve, problems)

    # Equivalence first: a fast wrong answer is not a fast path.
    for slow, fast in zip(greedy_solutions, fast_solutions):
        assert slow.open_facilities == fast.open_facilities
        assert slow.assignment == fast.assignment

    speedup = greedy_time / fast_time
    assert speedup >= MIN_SPEEDUP, (
        f"replay only {speedup:.1f}x faster than the textbook loop "
        f"({fast_time * 1000:.0f} ms vs {greedy_time * 1000:.0f} ms); "
        f"regression floor is {MIN_SPEEDUP}x"
    )
    # The replay must actually have exercised the warm path, not an
    # epoch rebuild per solve.
    assert solver.epoch_rebuilds == 1


#: The later-rounds replay: cluster size, placements, and the floor.  The
#: lazy rounds measure 110–140× here (re-sorting every round: ≈7×).
LARGE_SIZE = 200
LARGE_STEPS = 12
LARGE_MIN_SPEEDUP = 20.0


def _large_replay_problems():
    """12 placements on a 200-node geometric cluster, loads following them."""
    rng = np.random.default_rng(7)
    hops = Topology(connected_random_positions(LARGE_SIZE, rng)).hop_matrix()
    total = np.full(LARGE_SIZE, 250.0)
    # A sixth of the nodes lightly loaded enough to be worth a replica.
    used = rng.integers(0, 90, size=LARGE_SIZE).astype(float)
    placer = GreedySolver()
    problems = []
    for _ in range(LARGE_STEPS):
        problem = build_storage_ufl(used, total, hops, [30.0] * LARGE_SIZE)
        problems.append(problem)
        for node in placer.solve(problem).open_facilities:
            used[node] += 1.0
    return problems


@timing_guard
def test_incremental_later_rounds_are_20x_faster_than_greedy():
    problems = _large_replay_problems()
    solver = GreedySolver()
    solver.solve(problems[0])  # build the epoch caches once
    fast_time, fast_solutions = _timed(solver.solve, problems[1:])
    # One from-scratch solve costs over a second here, so the reference
    # is timed on every fourth instance and compared per solve.
    sampled = range(1, LARGE_STEPS, 4)
    greedy_time, greedy_solutions = _timed(
        reference_greedy, [problems[index] for index in sampled]
    )

    for index, slow in zip(sampled, greedy_solutions):
        fast = fast_solutions[index - 1]
        assert slow.open_facilities == fast.open_facilities
        assert slow.assignment == fast.assignment
    assert 10 <= min(s.replica_count for s in fast_solutions)

    speedup = (greedy_time / len(sampled)) / (fast_time / len(fast_solutions))
    assert speedup >= LARGE_MIN_SPEEDUP, (
        f"later rounds only {speedup:.1f}x faster per solve than the "
        f"textbook loop ({fast_time / len(fast_solutions) * 1000:.0f} ms vs "
        f"{greedy_time / len(sampled) * 1000:.0f} ms); "
        f"regression floor is {LARGE_MIN_SPEEDUP}x"
    )
    assert solver.epoch_rebuilds == 1


#: Greedy rounds per replica opened on the later-rounds replay.  The hand
#: step measures 2–4 rounds for 10–30 replicas (at most 0.4 a replica);
#: handing one client a round took 139–171 (5.6–16.5 a replica).
MAX_ROUNDS_PER_REPLICA = 1.0


def test_later_rounds_take_at_most_one_round_per_replica():
    solver = GreedySolver()
    for problem in _large_replay_problems():
        before = solver.rounds
        solution = solver.solve(problem)
        rounds = solver.rounds - before
        assert rounds <= MAX_ROUNDS_PER_REPLICA * solution.replica_count, (
            f"{rounds} rounds for {solution.replica_count} replicas"
        )
    assert solver.hand_steps > 0


#: Messages signed per contender, and the floor.  The kernel measures
#: 20–25× here (0.4 ms vs 10 ms per signature).
SIGN_MESSAGES = 24
SIGN_MIN_SPEEDUP = 10.0


def _reference_sign(private: PrivateKey, message: bytes) -> Signature:
    """``sign`` with ``k·G`` taken through the affine oracle (no retry arm)."""
    k = _deterministic_nonce(private, message, 0)
    r = reference_scalar_mult(GENERATOR, k).x % N
    s = pow(k, -1, N) * (_message_scalar(message) + r * private.secret) % N
    return Signature(r, min(s, N - s))


@timing_guard
def test_sign_is_10x_faster_than_affine_double_and_add():
    private = PrivateKey.from_seed("perf-guard", 0)
    messages = [f"metadata item {index}".encode() for index in range(SIGN_MESSAGES)]
    sign(private, b"warm-up")  # builds the generator table outside the timed region

    fast_time, fast = _timed(lambda message: sign(private, message), messages)
    slow_time, slow = _timed(lambda message: _reference_sign(private, message), messages)

    assert fast == slow
    speedup = slow_time / fast_time
    assert speedup >= SIGN_MIN_SPEEDUP, (
        f"sign only {speedup:.1f}x faster than affine double-and-add "
        f"({fast_time / SIGN_MESSAGES * 1000:.2f} ms vs "
        f"{slow_time / SIGN_MESSAGES * 1000:.2f} ms per signature); "
        f"regression floor is {SIGN_MIN_SPEEDUP}x"
    )


#: The count guard's cluster: 120 nodes, 10 simulated minutes, a tenth of
#: the nodes dropping out once (so some come back behind and adopt a chain).
SHARED_NODES = 120
SHARED_MINUTES = 10.0


def test_ledger_is_derived_per_chain_prefix_not_per_node(monkeypatch):
    applies, scans, adoptions = [], [], []
    apply_block, mean_u = ChainState.apply_block, ChainState.mean_u
    consider_chain = Blockchain.consider_chain

    def counted_apply(self, block):
        applies.append(block.current_hash)
        return apply_block(self, block)

    def counted_mean_u(self, now):
        scans.append(now)
        return mean_u(self, now)

    def counted_consider_chain(self, blocks, placements=None):
        adopted = consider_chain(self, blocks, placements)
        if adopted:
            adoptions.append(len(blocks))
        return adopted

    monkeypatch.setattr(ChainState, "apply_block", counted_apply)
    monkeypatch.setattr(ChainState, "mean_u", counted_mean_u)
    monkeypatch.setattr(Blockchain, "consider_chain", counted_consider_chain)
    result = run_experiment(
        ExperimentSpec(
            node_count=SHARED_NODES,
            config=make_config(),
            seed=3,
            duration_minutes=SHARED_MINUTES,
            churn=ChurnSpec(
                node_fraction=0.1, events_per_node=1.0, mean_downtime_seconds=45.0
            ),
        )
    )
    distinct = len(set(applies))
    assert result.cluster.longest_chain_node().chain.height >= 15
    assert adoptions, "no node adopted a chain: the scenario lost its adoption arm"
    # An adoption validates only the suffix it does not hold, and chains
    # keep the ledgers of every prefix they retain, so no adoption owes a
    # fold or a scan of its own.
    budget = 2 * distinct
    assert len(applies) <= budget, (
        f"{len(applies)} ledger folds for {distinct} distinct blocks after "
        f"{len(adoptions)} adoptions (one per node per block would be "
        f"≈{SHARED_NODES * distinct})"
    )
    assert len(scans) <= budget, (
        f"{len(scans)} mean-U scans for {distinct} distinct tips after "
        f"{len(adoptions)} adoptions"
    )


#: Blocks in the count guard's one compaction batch, and in its ranged fetch.
BATCH_BLOCKS = 256
RANGE_BLOCKS = 64


def test_storage_plane_opens_syncs_and_encodes_once_per_batch(tmp_path, monkeypatch):
    chain, store = stored_chain(tmp_path / STORE_NAME, BATCH_BLOCKS + 64)
    assert chain.first_retained_index >= BATCH_BLOCKS
    path = tmp_path / ARCHIVE_NAME
    archive = BlockArchive(path)
    opens, fsyncs, dumps, encoded, records, blocks = [], [], [], [], [], []
    real_open, real_fsync, real_dumps = builtins.open, os.fsync, json.dumps
    real_canonical, real_post_init = archive_module._canonical, Block.__post_init__
    real_encode_record = archive_module._encode_record

    def counted_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            opens.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    def counted_fsync(fd):
        fsyncs.append(os.fstat(fd).st_ino)
        return real_fsync(fd)

    def counted_dumps(value, *args, **kwargs):
        dumps.append(value)
        return real_dumps(value, *args, **kwargs)

    def counted_canonical(value):
        encoded.append(value)
        return real_canonical(value)

    def counted_encode_record(block_hash, data, checkpoint):
        records.append(block_hash)
        return real_encode_record(block_hash, data, checkpoint)

    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(os, "fsync", counted_fsync)
    monkeypatch.setattr(json, "dumps", counted_dumps)
    monkeypatch.setattr(archive_module, "_canonical", counted_canonical)
    monkeypatch.setattr(archive_module, "_encode_record", counted_encode_record)

    def counted_post_init(block):
        blocks.append(block.index)
        real_post_init(block)

    monkeypatch.setattr(Block, "__post_init__", counted_post_init)

    moved = store.compact(archive, BATCH_BLOCKS, chain.checkpoints)
    assert moved == archive.archived_below == BATCH_BLOCKS
    assert opens == ["ab"]
    assert fsyncs == [path.stat().st_ino]
    # The rows' bytes move undecoded: no block is built.  Each record is
    # framed once, and the only objects encoded as JSON are the pinned
    # checkpoint records; no block goes through JSON at all.
    assert blocks == []
    assert dumps == []
    assert len(records) == BATCH_BLOCKS
    assert all(isinstance(value, dict) and "ledger_digest" in value for value in encoded)
    assert len(encoded) == len(archive.checkpoints()) > 0

    del opens[:]
    fetched = list(archive.fetch_range(0, RANGE_BLOCKS))
    assert [block.index for block in fetched] == list(range(RANGE_BLOCKS))
    assert opens == ["rb"]

    del opens[:]
    assert archive.verify_integrity() == []
    assert opens == ["rb"]
    assert len(fsyncs) == 1
    store.close()


#: The routing guard: routes in one epoch of a 400-node cluster at the
#: paper's density, between this many endpoints (each in ≈100 routes).
ROUTES = 2000
ROUTE_ENDPOINTS = 40


class _CountedAdjacency(dict):
    """A node's neighbour dict that records every walk over it."""

    def __init__(self, neighbours, walks, node):
        super().__init__(neighbours)
        self._walks, self._node = walks, node

    def __iter__(self):
        self._walks.append(self._node)
        return super().__iter__()


def test_routes_walk_each_endpoints_adjacency_once_per_level():
    rng = np.random.default_rng(400)
    topology = Topology(connected_random_positions(400, rng))
    hops = topology.hop_matrix()
    walks = []
    topology._adj = [
        _CountedAdjacency(neighbours, walks, node)
        for node, neighbours in enumerate(topology._adj)
    ]
    endpoints = rng.choice(400, size=ROUTE_ENDPOINTS, replace=False)
    pairs = rng.choice(endpoints, size=(ROUTES, 2)).tolist()
    for source, target in pairs:
        path = topology.shortest_path(source, target)
        assert len(path) - 1 == hops[source, target]
    # A route at d hops reads each endpoint's BFS levels up to d - 1, so
    # its trees walk the adjacency of nodes at most d - 2 hops out — once
    # per tree, however many routes share it — and the route walks one
    # more adjacency to find where the two trees meet.
    deepest = {}
    for source, target in pairs:
        for endpoint in (source, target):
            deepest[endpoint] = max(deepest.get(endpoint, 0), hops[source, target])
    budget = ROUTES + sum(
        int(((hops[endpoint] >= 0) & (hops[endpoint] < depth - 1)).sum())
        for endpoint, depth in deepest.items()
    )
    assert len(walks) <= budget, (
        f"{len(walks)} adjacency walks for {ROUTES} routes; the trees of "
        f"{len(deepest)} endpoints need at most {budget}"
    )


#: The placement guard: placements in one topology epoch.
PLACEMENTS = 50


def test_placements_build_the_rdc_once_per_epoch_and_hash_nothing(monkeypatch):
    rng = np.random.default_rng(50)
    hops = Topology(connected_random_positions(120, rng)).hop_matrix()
    engine = AllocationEngine(make_config(), rng=np.random.default_rng(0))
    builds, hashes = [], []
    real_build = costs.range_distance_costs

    def counted_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    def counted(constructor):
        real = getattr(hashlib, constructor)

        def hasher(*args, **kwargs):
            hashes.append(constructor)
            return real(*args, **kwargs)

        return hasher

    monkeypatch.setattr(costs, "range_distance_costs", counted_build)
    monkeypatch.setattr(allocation, "range_distance_costs", counted_build, raising=False)
    for constructor in ("blake2b", "sha256", "md5", "new"):
        monkeypatch.setattr(hashlib, constructor, counted(constructor))
    used = rng.integers(0, 60, size=120).astype(float)
    for _ in range(PLACEMENTS):
        decision = engine.place_item(used, [250.0] * 120, hops, [30.0] * 120)
        used[list(decision.storing_nodes)] += 1.0
    assert len(builds) == 1
    assert hashes == []
    assert engine._solver.epoch_rebuilds == 1


#: The all-open guard's cluster: every node's weighted FDC below the RDC
#: of a one-hop neighbour (1 hop + two 30 m ranges = 61), which holds
#: below 15 used slots of 250 — the first placements of a fresh cluster.
ALL_OPEN_SIZE = 400
ONE_HOP_RDC = 61.0


def test_fresh_cluster_opens_every_node_in_at_most_three_rounds():
    rng = np.random.default_rng(61)
    hops = Topology(connected_random_positions(ALL_OPEN_SIZE, rng)).hop_matrix()
    used = rng.integers(0, 15, size=ALL_OPEN_SIZE).astype(float)
    problem = build_storage_ufl(
        used, np.full(ALL_OPEN_SIZE, 250.0), hops, [30.0] * ALL_OPEN_SIZE
    )
    assert problem.facility_costs.max() < ONE_HOP_RDC
    solver = GreedySolver()
    solution = solver.solve(problem)
    # A star of a node alone beats any star with a neighbour in it, so
    # the textbook loop opens all 400, one round each.
    assert solution.replica_count == ALL_OPEN_SIZE
    assert solver.rounds <= 3, f"{solver.rounds} rounds to open every node"
    expected = reference_greedy(problem)
    assert solution.open_facilities == expected.open_facilities
    assert solution.assignment == expected.assignment


def _two_hub_problem():
    """Two groups of 15: each hub reaches 10 of its group at 1 and the
    last 4 at 3, every other pair in a group costs 2, across groups 100.
    The hubs open for 5, the rest for 1000."""
    size, group = 30, 15
    connection = np.full((size, size), 100.0)
    facility_costs = np.full(size, 1000.0)
    for hub in (0, group):
        members = np.arange(hub, hub + group)
        connection[np.ix_(members, members)] = 2.0
        connection[hub, members] = connection[members, hub] = 1.0
        connection[hub, members[11:]] = connection[members[11:], hub] = 3.0
        facility_costs[hub] = 5.0
    np.fill_diagonal(connection, 0.0)
    return integer_ufl(facility_costs=facility_costs, connection_costs=connection)


def test_solve_stops_at_the_last_opening():
    # The textbook loop opens hub 0 (itself and 10 clients at 1: ratio
    # 15/11), then hub 15, then spends 8 more rounds handing the 3-cost
    # clients to their hubs one by one.  No other node can open for less
    # than 1000/30, so those rounds cannot change the open set.
    problem = _two_hub_problem()
    solver = GreedySolver()
    solution = solver.solve(problem)
    assert solution.open_facilities == (0, 15)
    assert solver.rounds == 2
    assert solver.hand_steps == 1
    expected = reference_greedy(problem)
    assert solution.assignment == expected.assignment
    assert solution.open_facilities == expected.open_facilities


#: The build-memory guard's cluster sizes and the bound on how much more
#: a node may cost in the larger one.  What grows with the cluster is
#: what the cluster holds once (topology edges: the field is fixed, so a
#: node's degree grows with n), about 1.4× here; a table copied per node
#: is O(n) per node, which made it 2.8× before the tables were shared.
BUILD_SIZES = (100, 400)
MAX_PER_NODE_GROWTH = 1.5


def _traced_build_bytes_per_node(node_count):
    """Memory a fresh ``node_count``-node cluster holds, per node.  A
    first build of the same size warms the process-wide memos (keys,
    initial ledgers) so only the cluster itself is counted."""
    build_cluster(node_count, PAPER_CONFIG, seed=5)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cluster = build_cluster(node_count, PAPER_CONFIG, seed=5)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(cluster.nodes) == node_count
    return held / node_count


def test_cluster_build_memory_per_node_stays_flat():
    small, large = (_traced_build_bytes_per_node(n) for n in BUILD_SIZES)
    assert large <= MAX_PER_NODE_GROWTH * small, (
        f"{large:.0f} B per node at n={BUILD_SIZES[1]} vs {small:.0f} B "
        f"at n={BUILD_SIZES[0]}"
    )


def _assert_one_set_of_tables(cluster):
    first = cluster.nodes[0]
    node_ids, address_of = first.chain.node_ids, first.chain.address_of
    assert node_ids == tuple(sorted(cluster.nodes))
    for node in cluster.nodes.values():
        for chain in (node.chain, node.chain._replica_at(0)):
            assert chain.node_ids is node_ids
            assert chain.state.node_ids is node_ids
            assert chain.address_of is address_of
        assert node.mobility_ranges is first.mobility_ranges


def test_every_chain_holds_the_clusters_one_set_of_tables():
    cluster = build_cluster(30, PAPER_CONFIG, seed=5)
    _assert_one_set_of_tables(cluster)
    # A snapshot keeps them shared: pickle writes each table once.
    _assert_one_set_of_tables(pickle.loads(pickle.dumps(cluster)))
