"""Unit tests for the allocation engine and recent-block selection."""

import math
import pickle

import numpy as np
import pytest

from repro.core.allocation import AllocationEngine
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.core.recent_blocks import recent_block_coverage, select_recent_cache_nodes
from repro.simnet.topology import Topology, connected_random_positions


@pytest.fixture
def engine():
    return AllocationEngine(SystemConfig(), rng=np.random.default_rng(0))


@pytest.fixture
def state():
    """(used, total, hop_matrix, ranges) for a 5-node line network."""
    n = 5
    hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    used = [2.0] * n
    total = [250.0] * n
    ranges = [30.0] * n
    return used, total, hops, ranges


class TestPlaceItem:
    def test_returns_nonempty_placement(self, engine, state):
        decision = engine.place_item(*state)
        assert decision.replica_count >= 1
        assert decision.storing_nodes

    def test_deterministic_for_same_state(self, engine, state):
        a = engine.place_item(*state)
        b = engine.place_item(*state)
        assert a.storing_nodes == b.storing_nodes

    def test_prefers_less_loaded_nodes(self, engine):
        n = 3
        hops = np.zeros((n, n))  # co-located: RDC irrelevant except ranges
        np.fill_diagonal(hops, 0.0)
        used = [240.0, 1.0, 240.0]
        total = [250.0] * n
        decision = engine.place_item(used, total, hops, [0.0] * n)
        assert decision.storing_nodes == (1,)

    def test_full_nodes_never_chosen(self, engine, state):
        used, total, hops, ranges = state
        used = [250.0, 2.0, 2.0, 2.0, 250.0]
        decision = engine.place_item(used, total, hops, ranges)
        assert 0 not in decision.storing_nodes
        assert 4 not in decision.storing_nodes

    def test_exclusion_respected(self, engine, state):
        used, total, hops, ranges = state
        decision = engine.place_item(used, total, hops, ranges, exclude_nodes=[2])
        assert 2 not in decision.storing_nodes

    def test_fallback_when_infeasible(self, engine, state):
        used, total, hops, ranges = state
        # Clients 0..4 exist but every facility except node 3 is full.
        used = [250.0, 250.0, 250.0, 100.0, 250.0]
        hops = np.full((5, 5), -1.0)  # fully partitioned
        np.fill_diagonal(hops, 0.0)
        decision = engine.place_item(used, total, hops, ranges)
        assert decision.storing_nodes == (3,)
        assert engine.fallback_placements == 1
        assert decision.total_cost == math.inf

    def test_all_full_raises(self, engine, state):
        used, total, hops, ranges = state
        used = [250.0] * 5
        with pytest.raises(AllocationError):
            engine.place_item(used, total, hops, ranges)

    def test_random_solver_matches_greedy_replica_count(self, state):
        config = SystemConfig(placement_solver="random")
        random_engine = AllocationEngine(config, rng=np.random.default_rng(1))
        greedy_engine = AllocationEngine(SystemConfig(), rng=np.random.default_rng(1))
        greedy = greedy_engine.place_item(*state)
        random_decision = random_engine.place_item(*state)
        assert random_decision.replica_count == greedy.replica_count

    def test_fixed_replica_count_skips_the_optimal_solve(self, state):
        config = SystemConfig(placement_solver="random", random_replicas=2)
        engine = AllocationEngine(config, rng=np.random.default_rng(1))
        assert engine.place_item(*state).replica_count == 2
        assert engine._solver.epoch_rebuilds == 0  # greedy never ran
        matched = AllocationEngine(
            SystemConfig(placement_solver="random"), rng=np.random.default_rng(1)
        )
        matched.place_item(*state)
        assert matched._solver.epoch_rebuilds == 1

    def test_rdc_matrix_is_built_once_per_epoch(self, engine, state):
        used, total, hops, ranges = state
        engine.place_item(*state)
        connection = engine._epoch[2]
        assert not connection.flags.writeable
        # Equal content in other objects is the same epoch.
        engine.place_item(used, total, hops.copy(), list(ranges))
        assert engine._epoch[2] is connection
        # The engine holds a copy of a writable hop matrix, so an in-place
        # edit of the caller's array is a new epoch, not a stale match.
        hops[0, 4] = hops[4, 0] = 1.0
        engine.place_item(used, total, hops, ranges)
        assert engine._epoch[2] is not connection
        engine.place_item(used, total, hops, [31.0] * 5)
        assert engine._solver.epoch_rebuilds == 3

    def test_all_solvers_produce_valid_decisions(self, state):
        for solver in ("greedy", "random"):
            config = SystemConfig(placement_solver=solver)
            engine = AllocationEngine(config, rng=np.random.default_rng(2))
            decision = engine.place_item(*state)
            assert decision.replica_count == len(decision.storing_nodes)


class TestSnapshotPickle:
    def test_solver_caches_stay_out_of_the_pickle(self, engine, state):
        # Snapshots pickle the whole runtime: the solver's per-epoch
        # arrays (3 x n^2 x 8 B), the allocator's RDC matrix with the hop
        # matrix and ranges it was built from, and the topology's hop
        # matrix and route trees must not ride along.
        cold = pickle.dumps(AllocationEngine(SystemConfig(), rng=np.random.default_rng(0)))
        engine.place_item(*state)
        assert engine._solver._order2d.size  # caches are warm
        assert engine._epoch[2].size
        warm = pickle.dumps(engine)
        assert len(warm) == len(cold)

        rng = np.random.default_rng(400)
        topology = Topology(connected_random_positions(400, rng))
        cold = pickle.dumps(topology)
        for _ in range(200):
            topology.shortest_path(*map(int, rng.integers(0, 400, size=2)))
        assert topology._hop_cache is not None and topology._trees  # warm
        assert len(pickle.dumps(topology)) == len(cold)
        restored = pickle.loads(pickle.dumps(topology))
        assert (restored.hop_matrix() == topology.hop_matrix()).all()
        assert restored.shortest_path(0, 399) == topology.shortest_path(0, 399)

    def test_round_trip_solves_identically(self, engine, state):
        used, total, hops, ranges = state
        engine.place_item(*state)
        restored = pickle.loads(pickle.dumps(engine))
        for bump in range(3):
            used = list(used)
            used[bump] += 7.0
            expected = engine.place_item(used, total, hops, ranges)
            assert restored.place_item(used, total, hops, ranges) == expected
        assert vars(restored._solver)["rounds"] == engine._solver.rounds > 0


class TestRecentCacheSelection:
    def test_excludes_already_storing(self, engine, state):
        used, total, hops, ranges = state
        chosen = select_recent_cache_nodes(
            engine, used, total, hops, ranges, already_storing=[0, 1]
        )
        assert 0 not in chosen and 1 not in chosen
        assert chosen  # someone gets the cache assignment

    def test_empty_when_everyone_stores(self, engine, state):
        used, total, hops, ranges = state
        chosen = select_recent_cache_nodes(
            engine, used, total, hops, ranges, already_storing=list(range(5))
        )
        assert chosen == ()

    def test_offline_nodes_excluded(self, engine, state):
        used, total, hops, ranges = state
        chosen = select_recent_cache_nodes(
            engine, used, total, hops, ranges,
            already_storing=[0], offline_nodes=[1, 2],
        )
        assert not set(chosen) & {0, 1, 2}

    def test_graceful_when_infeasible(self, engine, state):
        used, total, hops, ranges = state
        used = [250.0] * 5
        chosen = select_recent_cache_nodes(
            engine, used, total, hops, ranges, already_storing=[0]
        )
        assert chosen == ()


class TestCoverage:
    def test_recent_block_coverage(self):
        holders = [[1, 2], [2], [2, 3], []]
        assert recent_block_coverage(holders, 2) == pytest.approx(0.75)
        assert recent_block_coverage(holders, 9) == 0.0
        assert recent_block_coverage([], 1) == 0.0
