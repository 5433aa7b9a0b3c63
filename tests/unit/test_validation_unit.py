"""Unit tests for the allocation-verification module."""

import numpy as np
import pytest

from repro.core.allocation import AllocationEngine
from repro.core.blockchain import ChainState
from repro.core.config import SystemConfig
from repro.core.validation import (
    DETERMINISTIC_SOLVERS,
    allocations_verifiable,
    verify_block_allocations,
)
from repro.core.block import make_genesis


class TestVerifiability:
    @pytest.mark.parametrize("solver", DETERMINISTIC_SOLVERS)
    def test_deterministic_solvers(self, solver):
        assert allocations_verifiable(solver)

    def test_random_not_verifiable(self):
        assert not allocations_verifiable("random")

    @pytest.mark.parametrize("solver", ["incremental", "local_search", "lp_rounding"])
    def test_retired_run_modes_not_verifiable(self, solver):
        assert not allocations_verifiable(solver)


class TestVerifyGenesisLike:
    def make_world(self):
        config = SystemConfig(storage_capacity=50)
        state = ChainState(range(4), config)
        genesis = make_genesis((0, 1, 2, 3), initial_b=1.0)
        state.apply_block(genesis)
        allocator = AllocationEngine(config, rng=np.random.default_rng(0))
        hops = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
        return config, state, allocator, hops

    def test_empty_block_only_checks_block_and_recent(self):
        import dataclasses

        config, state, allocator, hops = self.make_world()
        # Build a block whose placements came from the actual solver.
        used = [min(float(state.used_slots(n, 10.0)), 50.0) for n in range(4)]
        total = [50.0] * 4
        ranges = [30.0] * 4
        block_decision = allocator.place_item(used, total, hops, ranges)
        for node in block_decision.storing_nodes:
            used[node] = min(used[node] + 1.0, 50.0)
        from repro.core.recent_blocks import select_recent_cache_nodes

        recent = select_recent_cache_nodes(
            allocator, used, total, hops, ranges,
            already_storing=tuple(block_decision.storing_nodes) + (0,),
        )
        from repro.core.block import Block

        block = Block(
            index=1,
            timestamp=10.0,
            previous_hash="00" * 32,
            pos_hash="11" * 32,
            miner=0,
            miner_address="x",
            hit=0,
            target_b=1.0,
            storing_nodes=tuple(block_decision.storing_nodes),
            recent_cache_nodes=tuple(recent),
        )
        violations = verify_block_allocations(
            block, state, allocator, hops, ranges, 50
        )
        assert violations == []

        forged = dataclasses.replace(block, storing_nodes=(0,), current_hash="")
        if tuple(block_decision.storing_nodes) != (0,):
            violations = verify_block_allocations(
                forged, state, allocator, hops, ranges, 50
            )
            assert violations and "block storage" in violations[0]

    def test_random_solver_rejected(self):
        config = SystemConfig(placement_solver="random")
        state = ChainState(range(4), config)
        state.apply_block(make_genesis((0, 1, 2, 3), initial_b=1.0))
        allocator = AllocationEngine(config, rng=np.random.default_rng(0))
        hops = np.zeros((4, 4))
        genesis = make_genesis((0, 1, 2, 3), initial_b=1.0)
        with pytest.raises(ValueError):
            verify_block_allocations(genesis, state, allocator, hops, [0.0] * 4, 50)
