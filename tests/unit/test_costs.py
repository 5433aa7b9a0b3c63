"""Unit tests for the FDC (Eq. 1) and RDC (Eq. 2) cost builders."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facility.costs import (
    DEFAULT_FDC_WEIGHT,
    build_storage_ufl,
    fairness_degree_cost,
    fairness_degree_costs,
    fairness_degree_terms,
    range_distance_costs,
)
from repro.simnet.topology import UNREACHABLE
from tests import spec


class TestFairnessDegreeCost:
    def test_paper_formula(self):
        # f = W / (W_tol − W)
        assert fairness_degree_cost(50, 250) == pytest.approx(50 / 200)

    def test_empty_node_is_free(self):
        assert fairness_degree_cost(0, 250) == 0.0

    def test_full_node_is_infinite(self):
        assert fairness_degree_cost(250, 250) == math.inf

    def test_monotone_in_usage(self):
        costs = [fairness_degree_cost(u, 100) for u in range(0, 100, 10)]
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)

    def test_half_full_equals_one(self):
        assert fairness_degree_cost(125, 250) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fairness_degree_cost(-1, 10)
        with pytest.raises(ValueError):
            fairness_degree_cost(11, 10)
        with pytest.raises(ValueError):
            fairness_degree_cost(0, 0)

    def test_vectorised(self):
        costs = fairness_degree_costs([0, 125, 250], [250, 250, 250])
        assert costs[0] == 0.0
        assert costs[1] == pytest.approx(1.0)
        assert costs[2] == math.inf

    def test_vectorised_shape_mismatch(self):
        with pytest.raises(ValueError):
            fairness_degree_costs([1, 2], [10])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(min_value=-1, max_value=300),
                    st.sampled_from([0, 249, 250]),
                ),
                st.one_of(
                    st.integers(min_value=-1, max_value=300),
                    st.sampled_from([0, 1, 250]),
                ),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_vectorised_equals_the_scalar_bitwise(self, nodes):
        used, total = (list(column) for column in zip(*nodes))
        try:
            expected = [fairness_degree_cost(u, t) for u, t in zip(used, total)]
        except ValueError as error:
            # The first invalid node raises, with the scalar's message.
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                fairness_degree_costs(used, total)
            return
        costs = fairness_degree_costs(used, total)
        assert costs.tobytes() == np.array(expected, dtype=float).tobytes()
        # Each is Eq. 1 in ℚ, correctly rounded.
        assert costs.tolist() == [float(spec.fdc(u, t)) for u, t in nodes]

    def test_terms_are_eq1_exactly(self):
        used, remaining = fairness_degree_terms([0, 50, 250], [250, 250, 250])
        assert used.tolist() == [0.0, 50.0, 250.0]
        assert remaining.tolist() == [250.0, 200.0, 0.0]


class TestRangeDistanceCost:
    def test_paper_formula(self):
        hops = np.array([[0, 2], [2, 0]])
        cost = range_distance_costs(hops, [30.0, 10.0])
        # c_01 = d + range(0) + range(1) = 2 + 30 + 10
        assert cost[0, 1] == pytest.approx(42.0)
        assert cost[1, 0] == pytest.approx(42.0)

    def test_diagonal_zero(self):
        hops = np.array([[0, 1], [1, 0]])
        cost = range_distance_costs(hops, [30.0, 30.0])
        assert cost[0, 0] == 0.0 and cost[1, 1] == 0.0

    def test_unreachable_is_infinite(self):
        hops = np.array([[0, UNREACHABLE], [UNREACHABLE, 0]])
        cost = range_distance_costs(hops, [1.0, 1.0])
        assert cost[0, 1] == math.inf

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            range_distance_costs(np.zeros((2, 3)), [0, 0])

    def test_range_length_mismatch(self):
        with pytest.raises(ValueError):
            range_distance_costs(np.zeros((2, 2)), [0.0])

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            range_distance_costs(np.zeros((2, 2)), [-1.0, 0.0])


class TestBuildStorageUFL:
    def test_default_weight_is_papers_1000(self):
        assert DEFAULT_FDC_WEIGHT == 1000.0

    def test_weighting_applied(self):
        hops = np.zeros((2, 2))
        problem = build_storage_ufl([125, 0], [250, 250], hops, [0, 0])
        assert problem.facility_costs[0] == pytest.approx(1000.0)
        assert problem.facility_costs[1] == 0.0

    def test_opening_costs_are_eq1_integers(self):
        # A·W over W_tol − W, handed over as integers: 1000·50 / 200.
        hops = np.array([[0, 1], [1, 0]])
        problem = build_storage_ufl([50, 250], [250, 250], hops, [30, 30])
        assert problem.opening_num.tolist() == [50_000.0, 250_000.0]
        assert problem.opening_den.tolist() == [200.0, 0.0]
        assert spec.opening_costs(problem) == [1000 * spec.fdc(50, 250), math.inf]
        assert problem.connection_costs.tolist() == [[0.0, 61.0], [61.0, 0.0]]

    def test_exclusion(self):
        hops = np.zeros((2, 2))
        problem = build_storage_ufl(
            [0, 0], [250, 250], hops, [0, 0], exclude_nodes=[1]
        )
        assert problem.facility_costs[1] == math.inf
        assert problem.opening_den[1] == 0.0
        assert list(problem.openable_facilities()) == [0]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            build_storage_ufl([0], [1], np.zeros((1, 1)), [0], fdc_weight=-1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_storage_ufl([0, 0], [1, 1], np.zeros((3, 3)), [0, 0, 0])
