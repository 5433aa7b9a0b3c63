"""Unit tests for the data-migration extension."""

import math

import numpy as np
import pytest

from repro.core.migration import (
    MigrationMove,
    MigrationPlan,
    MoveKind,
    placement_drift,
    plan_migration,
)
from repro.facility.greedy import solve_greedy
from repro.facility.problem import solution_cost_of_open_set
from tests.helpers import integer_ufl


def make_instance(seed=0, num_facilities=8, num_clients=8):
    rng = np.random.default_rng(seed)
    return integer_ufl(
        facility_costs=rng.integers(1, 11, size=num_facilities),
        connection_costs=rng.integers(0, 9, size=(num_facilities, num_clients)),
    )


class TestMigrationMove:
    def test_kind_field_validation(self):
        MigrationMove(MoveKind.ADD, None, 3)
        MigrationMove(MoveKind.DROP, 2, None)
        MigrationMove(MoveKind.SWAP, 2, 3)
        with pytest.raises(ValueError):
            MigrationMove(MoveKind.ADD, 1, 3)
        with pytest.raises(ValueError):
            MigrationMove(MoveKind.DROP, None, 3)
        with pytest.raises(ValueError):
            MigrationMove(MoveKind.SWAP, None, 3)

    def test_transfer_accounting(self):
        assert MigrationMove(MoveKind.ADD, None, 1).transfers_data
        assert MigrationMove(MoveKind.SWAP, 0, 1).transfers_data
        assert not MigrationMove(MoveKind.DROP, 0, None).transfers_data


class TestPlacementDrift:
    def test_optimal_placement_has_unit_drift(self):
        problem = make_instance()
        optimal = solve_greedy(problem)
        assert placement_drift(problem, optimal.open_facilities) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_bad_placement_has_higher_drift(self):
        problem = make_instance()
        optimal = solve_greedy(problem)
        costs = problem.facility_costs.copy()
        worst = int(np.argmax(np.where(np.isfinite(costs), costs, -1)))
        if worst not in optimal.open_facilities:
            assert placement_drift(problem, [worst]) > 1.0

    def test_infeasible_placement_is_infinite(self):
        inf = math.inf
        problem = integer_ufl(
            facility_costs=np.array([1.0, 1.0]),
            connection_costs=np.array([[0.0, inf], [inf, 0.0]]),
        )
        assert placement_drift(problem, [0]) == math.inf


class TestPlanMigration:
    def test_no_moves_from_local_optimum(self):
        # Local search is a fixed point of add/drop/swap, so the planner —
        # which uses the same move set — must find nothing to do.
        from repro.facility.local_search import solve_local_search

        problem = make_instance()
        optimum = solve_local_search(problem)
        plan = plan_migration(problem, optimum.open_facilities)
        assert plan.operations == 0
        assert plan.final_drift == pytest.approx(plan.initial_drift)

    def test_improves_bad_placement(self):
        problem = make_instance(seed=3)
        # Start from the single most expensive facility.
        worst = int(np.argmax(problem.facility_costs))
        plan = plan_migration(problem, [worst], max_operations=5)
        assert plan.final_cost < plan.initial_cost
        assert plan.final_drift < plan.initial_drift

    def test_budget_respected(self):
        problem = make_instance(seed=4)
        worst = int(np.argmax(problem.facility_costs))
        for budget in (0, 1, 2):
            plan = plan_migration(problem, [worst], max_operations=budget)
            assert plan.operations <= budget

    def test_more_budget_never_worse(self):
        problem = make_instance(seed=5)
        worst = int(np.argmax(problem.facility_costs))
        costs = [
            plan_migration(problem, [worst], max_operations=budget).final_cost
            for budget in (0, 1, 2, 4, 8)
        ]
        assert costs == sorted(costs, reverse=True)

    def test_final_open_set_matches_cost(self):
        problem = make_instance(seed=6)
        start = [int(np.argmax(problem.facility_costs))]
        plan = plan_migration(problem, start, max_operations=4)
        final_set = plan.final_open_set(start)
        assert solution_cost_of_open_set(problem, final_set) == pytest.approx(
            plan.final_cost
        )

    def test_small_change_rule_skips_migration(self):
        """Near-optimal placements are left alone (the paper's 'not
        necessary if the change over the network is small')."""
        problem = make_instance(seed=7)
        optimal = solve_greedy(problem)
        plan = plan_migration(
            problem, optimal.open_facilities, max_operations=5,
            min_relative_gain=0.25,
        )
        assert plan.operations == 0

    def test_repairs_infeasible_placement(self):
        inf = math.inf
        problem = integer_ufl(
            facility_costs=np.array([1.0, 1.0, 1.0]),
            connection_costs=np.array(
                [[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]]
            ),
        )
        plan = plan_migration(problem, [0], max_operations=3)
        assert math.isinf(plan.initial_cost)
        assert math.isfinite(plan.final_cost)
        assert 2 in plan.final_open_set([0])

    def test_negative_budget_rejected(self):
        problem = make_instance()
        with pytest.raises(ValueError):
            plan_migration(problem, [0], max_operations=-1)

    def test_transfers_exclude_drops(self):
        problem = make_instance(seed=8)
        # Start with every facility open: the plan should mostly DROP.
        everything = list(range(problem.num_facilities))
        plan = plan_migration(problem, everything, max_operations=6)
        assert plan.transfers <= plan.operations
        if plan.operations:
            assert any(move.kind is MoveKind.DROP for move in plan.moves)
