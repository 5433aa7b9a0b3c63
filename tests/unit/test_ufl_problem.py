"""Unit tests for the UFL problem/solution model."""

import math

import numpy as np
import pytest

from repro.facility.problem import (
    UFLProblem,
    UFLSolution,
    assign_to_open,
    solution_cost_of_open_set,
)
from tests.helpers import integer_ufl


@pytest.fixture
def tiny():
    """2 facilities, 3 clients."""
    return integer_ufl(
        facility_costs=np.array([10.0, 4.0]),
        connection_costs=np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]),
    )


class TestUFLProblem:
    def test_shape_accessors(self, tiny):
        assert tiny.num_facilities == 2
        assert tiny.num_clients == 3

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            integer_ufl(np.ones(2), np.ones((3, 4)))

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            integer_ufl(np.array([-1.0]), np.ones((1, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            integer_ufl(np.ones(0), np.ones((0, 2)))

    def test_openable_excludes_inf(self):
        problem = integer_ufl(
            np.array([1.0, math.inf, 2.0]), np.zeros((3, 2))
        )
        assert list(problem.openable_facilities()) == [0, 2]

    def test_feasible(self, tiny):
        assert tiny.is_feasible()

    def test_infeasible_all_full(self):
        problem = integer_ufl(np.array([math.inf]), np.zeros((1, 2)))
        assert not problem.is_feasible()

    def test_infeasible_unreachable_client(self):
        problem = integer_ufl(
            np.array([1.0, math.inf]),
            np.array([[0.0, math.inf], [math.inf, 0.0]]),
        )
        assert not problem.is_feasible()


class TestExactInstance:
    """The trust boundary: an instance the greedy cannot decide exactly
    is refused when it is built."""

    def test_opening_cost_is_numerator_over_denominator(self):
        problem = UFLProblem([1.0, 5.0], [3.0, 0.0], np.zeros((2, 1)))
        assert problem.facility_costs.tolist() == [1 / 3, math.inf]
        assert list(problem.openable_facilities()) == [0]

    def test_non_integral_connection_cost_rejected(self):
        with pytest.raises(
            ValueError, match="^connection costs must be integers or inf$"
        ):
            integer_ufl([1.0], [[0.5, math.inf]])

    def test_nan_connection_cost_rejected(self):
        with pytest.raises(
            ValueError, match="^connection costs must be integers or inf$"
        ):
            integer_ufl([1.0], [[math.nan]])

    @pytest.mark.parametrize(
        "num, den", [([0.5], [1.0]), ([1.0], [1.5]), ([math.inf], [1.0])]
    )
    def test_non_integral_opening_cost_rejected(self, num, den):
        with pytest.raises(
            ValueError, match="^opening costs must be ratios of finite integers$"
        ):
            UFLProblem(num, den, np.zeros((1, 1)))

    def test_instance_over_the_magnitude_bound_rejected(self):
        # Row sum 2**40, denominator 2**5, one client: 2**45 · 2**5 = 2**50
        # fits; four clients push the product to 2**52.
        UFLProblem([0.0], [2.0**5], [[2.0**40]])
        with pytest.raises(
            ValueError,
            match=r"^costs too large to compare exactly: ratio numerator "
            r"\d+ times denominator 128 is not below 2\*\*52$",
        ):
            UFLProblem([0.0], [2.0**5], [[2.0**40 / 4] * 4])

    def test_read_only_matrix_is_checked_once(self):
        connection = np.array([[0.0, 2.0], [2.0, 0.0]])
        connection.flags.writeable = False
        integer_ufl([1.0, 1.0], connection)
        assert UFLProblem._checked[0] is connection
        # A writable matrix is checked every time, never held.
        writable = connection.copy()
        integer_ufl([1.0, 1.0], writable)
        assert UFLProblem._checked[0] is connection


class TestUFLSolution:
    def test_costs(self, tiny):
        solution = UFLSolution(open_facilities=(1,), assignment=(1, 1, 1))
        assert solution.facility_cost(tiny) == 4.0
        assert solution.connection_cost(tiny) == 6.0
        assert solution.total_cost(tiny) == 10.0

    def test_replica_count(self, tiny):
        assert UFLSolution((0, 1), (0, 1, 1)).replica_count == 2

    def test_validate_ok(self, tiny):
        UFLSolution((0, 1), (0, 1, 1)).validate(tiny)

    def test_validate_rejects_closed_assignment(self, tiny):
        with pytest.raises(ValueError):
            UFLSolution((0,), (0, 1, 0)).validate(tiny)

    def test_validate_rejects_wrong_length(self, tiny):
        with pytest.raises(ValueError):
            UFLSolution((0,), (0, 0)).validate(tiny)

    def test_validate_rejects_empty_open_set(self, tiny):
        with pytest.raises(ValueError):
            UFLSolution((), (0, 0, 0)).validate(tiny)

    def test_validate_rejects_infinite_facility(self):
        problem = integer_ufl(
            np.array([math.inf, 1.0]), np.zeros((2, 1))
        )
        with pytest.raises(ValueError):
            UFLSolution((0,), (0,)).validate(problem)

    def test_open_set_deduplicated_and_sorted(self):
        solution = UFLSolution((2, 0, 2), (0, 0))
        assert solution.open_facilities == (0, 2)


class TestAssignToOpen:
    def test_assigns_cheapest(self, tiny):
        solution = assign_to_open(tiny, [0, 1])
        assert solution.assignment == (0, 1, 1)

    def test_single_facility(self, tiny):
        solution = assign_to_open(tiny, [0])
        assert solution.assignment == (0, 0, 0)

    def test_empty_rejected(self, tiny):
        with pytest.raises(ValueError):
            assign_to_open(tiny, [])

    def test_unreachable_client_rejected(self):
        problem = integer_ufl(
            np.array([1.0, 1.0]),
            np.array([[0.0, math.inf], [math.inf, 0.0]]),
        )
        with pytest.raises(ValueError):
            assign_to_open(problem, [0])


class TestOpenSetCost:
    def test_matches_solution_cost(self, tiny):
        for open_set in ([0], [1], [0, 1]):
            expected = assign_to_open(tiny, open_set).total_cost(tiny)
            assert solution_cost_of_open_set(tiny, open_set) == pytest.approx(expected)

    def test_empty_is_inf(self, tiny):
        assert solution_cost_of_open_set(tiny, []) == math.inf

    def test_unopenable_is_inf(self):
        problem = integer_ufl(np.array([math.inf, 1.0]), np.zeros((2, 1)))
        assert solution_cost_of_open_set(problem, [0]) == math.inf

    def test_unreachable_is_inf(self):
        problem = integer_ufl(
            np.array([1.0, 1.0]),
            np.array([[0.0, math.inf], [math.inf, 0.0]]),
        )
        assert solution_cost_of_open_set(problem, [0]) == math.inf
