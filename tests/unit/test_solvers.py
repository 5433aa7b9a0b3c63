"""Unit tests for the two UFL solvers (greedy, random)."""

import math

import numpy as np
import pytest

from repro.facility.random_baseline import solve_random
from tests import spec
from tests.helpers import integer_ufl, solve_greedy


def make_instance(num_facilities, num_clients, seed):
    rng = np.random.default_rng(seed)
    return integer_ufl(
        facility_costs=rng.integers(1, 21, size=num_facilities),
        connection_costs=rng.integers(0, 11, size=(num_facilities, num_clients)),
    )


@pytest.fixture
def trivial():
    """One obviously-best facility."""
    return integer_ufl(
        facility_costs=np.array([1.0, 100.0]),
        connection_costs=np.array([[1.0, 1.0], [1.0, 1.0]]),
    )


#: The deterministic solvers (the random baseline takes a count and an rng).
ALL_SOLVERS = [solve_greedy]


class TestAllSolvers:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_trivial_instance(self, trivial, solver):
        solution = solver(trivial)
        solution.validate(trivial)
        assert solution.open_facilities == (0,)
        assert solution.total_cost(trivial) == pytest.approx(3.0)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solutions_valid_on_random_instances(self, solver, seed):
        problem = make_instance(6, 8, seed)
        solver(problem).validate(problem)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_infeasible_raises(self, solver):
        problem = integer_ufl(np.array([math.inf]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            solver(problem)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_full_facility_never_opened(self, solver):
        problem = integer_ufl(
            facility_costs=np.array([math.inf, 5.0]),
            connection_costs=np.array([[0.0, 0.0], [1.0, 1.0]]),
        )
        solution = solver(problem)
        assert 0 not in solution.open_facilities

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_heuristics_close_to_optimal(self, seed):
        problem = make_instance(7, 9, seed)
        optimum = spec.optimum(problem)
        solution = solve_greedy(problem)
        cost = spec.objective(problem, solution.open_facilities, solution.assignment)
        assert optimum <= cost <= 2 * optimum  # far inside the theory bounds


class TestExactOptimum:
    """``spec.optimum``, the oracle the greedy's bound is checked against."""

    def test_below_the_greedy_where_the_greedy_misses(self):
        # The greedy first opens facility 1 for client 0 (star 1 + 6 = 7,
        # against facility 0's (5 + 4 + 6) / 2), then serves client 1 from
        # it at 9: 16 in all.  Facility 0 alone serves both for 15.
        problem = integer_ufl(
            facility_costs=np.array([5.0, 1.0]),
            connection_costs=np.array([[4.0, 6.0], [6.0, 9.0]]),
        )
        assert solve_greedy(problem).total_cost(problem) == 16
        assert spec.optimum(problem) == 15

    def test_infeasible_raises(self):
        problem = integer_ufl(np.array([math.inf]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            spec.optimum(problem)


class TestRandomBaseline:
    def test_replica_count_respected(self, rng):
        problem = make_instance(8, 8, 3)
        solution = solve_random(problem, 3, rng)
        solution.validate(problem)
        assert solution.replica_count == 3

    def test_invalid_replica_count(self, rng):
        problem = make_instance(3, 3, 0)
        with pytest.raises(ValueError):
            solve_random(problem, 0, rng)
        with pytest.raises(ValueError):
            solve_random(problem, 10, rng)

    def test_repair_covers_partitioned_clients(self, rng):
        # Two components: facilities {0,1} serve clients {0,1}; facility 2
        # serves client 2.  Any 1-replica sample must be repaired to 2.
        inf = math.inf
        problem = integer_ufl(
            facility_costs=np.array([1.0, 1.0, 1.0]),
            connection_costs=np.array(
                [[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]]
            ),
        )
        solution = solve_random(problem, 1, rng)
        solution.validate(problem)
        assert solution.replica_count == 2

    def test_unrepairable_raises(self, rng):
        inf = math.inf
        problem = integer_ufl(
            facility_costs=np.array([1.0, inf]),
            connection_costs=np.array([[0.0, inf], [inf, 0.0]]),
        )
        with pytest.raises(ValueError):
            solve_random(problem, 1, rng)

    def test_randomness_varies_open_set(self):
        problem = make_instance(10, 10, 5)
        rng = np.random.default_rng(0)
        sets = {solve_random(problem, 2, rng).open_facilities for _ in range(20)}
        assert len(sets) > 1
