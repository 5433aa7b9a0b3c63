"""Property-based tests for the UFL solvers, checked against Eq. 3–6 in ℚ."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facility.problem import UFLProblem
from tests import spec
from tests.helpers import solve_greedy


@st.composite
def ufl_instances(draw, max_facilities=6, max_clients=7):
    """Integer connection costs up to 10; opening costs up to 20 with
    denominators up to 4."""
    num_f = draw(st.integers(min_value=1, max_value=max_facilities))
    num_c = draw(st.integers(min_value=1, max_value=max_clients))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    den = rng.integers(1, 5, size=num_f)
    return UFLProblem(
        opening_num=rng.integers(0, 20 * den + 1),
        opening_den=den,
        connection_costs=rng.integers(0, 11, size=(num_f, num_c)),
    )


def _cost(problem, solution):
    """Eq. 3 of a solution, exactly, once Eq. 4–6 hold."""
    assert spec.is_solution(problem, solution.open_facilities, solution.assignment)
    return spec.objective(problem, solution.open_facilities, solution.assignment)


class TestSolverProperties:
    @settings(max_examples=30, deadline=None)
    @given(ufl_instances())
    def test_greedy_solution_valid(self, problem):
        solution = solve_greedy(problem)
        solution.validate(problem)
        assert (solution.open_facilities, solution.assignment) == spec.greedy(problem)

    @settings(max_examples=15, deadline=None)
    @given(ufl_instances(max_facilities=5, max_clients=5))
    def test_optimum_bounds_greedy(self, problem):
        optimum = spec.optimum(problem)
        assert optimum <= spec.objective(problem, *spec.greedy(problem))

    @settings(max_examples=15, deadline=None)
    @given(ufl_instances(max_facilities=5, max_clients=5))
    def test_greedy_within_approximation_bound(self, problem):
        """Greedy is a 1.861-approximation; check a safe 2x bound."""
        optimum = spec.optimum(problem)
        assert _cost(problem, solve_greedy(problem)) <= 2 * optimum

    @settings(max_examples=20, deadline=None)
    @given(ufl_instances())
    def test_greedy_deterministic(self, problem):
        assert solve_greedy(problem).open_facilities == solve_greedy(problem).open_facilities
