"""Unit tests for the UFL solvers (greedy, local search, LP, MILP, random)."""

import math

import numpy as np
import pytest

from repro.facility.greedy import solve_greedy
from repro.facility.local_search import solve_local_search
from repro.facility.lp_rounding import solve_lp_relaxation, solve_lp_rounding
from repro.facility.mip import solve_milp
from repro.facility.random_baseline import solve_random
from tests.helpers import integer_ufl


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


ALL_SOLVERS = [solve_greedy, solve_local_search, solve_lp_rounding, solve_milp]


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
        optimum = solve_milp(problem).total_cost(problem)
        for solver in (solve_greedy, solve_local_search, solve_lp_rounding):
            cost = solver(problem).total_cost(problem)
            assert cost >= optimum - 1e-9
            assert cost <= 2.0 * optimum  # far inside the theory bounds

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_local_search_never_worse_than_greedy(self, seed):
        problem = make_instance(8, 10, seed)
        greedy_cost = solve_greedy(problem).total_cost(problem)
        ls_cost = solve_local_search(problem).total_cost(problem)
        assert ls_cost <= greedy_cost + 1e-9


class TestLPRelaxation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lower_bound_below_optimum(self, seed):
        problem = make_instance(6, 8, seed)
        lp = solve_lp_relaxation(problem)
        optimum = solve_milp(problem).total_cost(problem)
        assert lp.lower_bound <= optimum + 1e-6

    def test_fractional_coverage(self):
        problem = make_instance(5, 7, 0)
        lp = solve_lp_relaxation(problem)
        assert np.all(lp.x.sum(axis=0) >= 1 - 1e-6)

    def test_linking_constraint(self):
        problem = make_instance(5, 7, 1)
        lp = solve_lp_relaxation(problem)
        assert np.all(lp.x <= lp.y[:, None] + 1e-6)


class TestLocalSearch:
    def test_accepts_initial_open_set(self, trivial):
        solution = solve_local_search(trivial, initial=[1])
        solution.validate(trivial)
        # The drop/swap moves must escape the bad start.
        assert solution.open_facilities == (0,)

    def test_infeasible_initial_rejected(self):
        problem = integer_ufl(
            np.array([1.0, math.inf]), np.zeros((2, 1))
        )
        with pytest.raises(ValueError):
            solve_local_search(problem, initial=[1])

    def test_empty_initial_open_set_rejected(self, trivial):
        # Zero facilities open serves nobody: infeasible, not a crash.
        with pytest.raises(ValueError):
            solve_local_search(trivial, initial=[])

    def test_all_equal_costs_collapse_to_single_facility(self):
        # Fully symmetric instance: every drop ties, every swap ties.
        # The drop loop must still collapse the bloated start down to one
        # facility and then terminate (no improvement ping-pong on ties).
        problem = integer_ufl(
            facility_costs=np.full(4, 7.0),
            connection_costs=np.full((4, 5), 3.0),
        )
        solution = solve_local_search(problem, initial=[0, 1, 2, 3])
        solution.validate(problem)
        assert len(solution.open_facilities) == 1
        assert solution.total_cost(problem) == pytest.approx(7.0 + 5 * 3.0)

    def test_single_node_problem(self):
        # One facility, one client: nothing to add, drop, or swap.
        problem = integer_ufl(
            facility_costs=np.array([2.0]),
            connection_costs=np.array([[1.0]]),
        )
        solution = solve_local_search(problem)
        solution.validate(problem)
        assert solution.open_facilities == (0,)
        assert solution.total_cost(problem) == 3.0

    def test_sole_open_facility_never_dropped(self):
        # The drop guard: even when the facility cost dominates the
        # objective, the last open facility must stay open.
        problem = integer_ufl(
            facility_costs=np.array([50.0]),
            connection_costs=np.array([[1.0, 1.0, 1.0]]),
        )
        solution = solve_local_search(problem)
        solution.validate(problem)
        assert solution.open_facilities == (0,)


class TestMILP:
    def test_instance_size_guard(self):
        problem = make_instance(10, 10, 0)
        with pytest.raises(ValueError):
            solve_milp(problem, max_variables=5)


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
