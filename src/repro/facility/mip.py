"""Exact UFL solver via mixed-integer programming (HiGHS).

Used as the ground-truth oracle in tests and the solver-quality ablation:
on small instances (the default guard is 4 000 variables) it certifies the
optimum that the greedy / local-search / LP-rounding heuristics are compared
against.  Not intended for the simulation hot path.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open
from repro.obs.runtime import traced_solver

#: Refuse instances whose variable count exceeds this (keeps tests fast).
DEFAULT_MAX_VARIABLES = 4000


@traced_solver("milp")
def solve_milp(problem: UFLProblem, max_variables: int = DEFAULT_MAX_VARIABLES) -> UFLSolution:
    """Solve the UFL instance to optimality.

    Raises
    ------
    ValueError
        If the instance is infeasible or exceeds ``max_variables``.
    RuntimeError
        If HiGHS fails unexpectedly.
    """
    # scipy loads with the first exact solve, not with ``repro.facility``.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    if not problem.is_feasible():
        raise ValueError("infeasible UFL instance")
    num_f = problem.num_facilities
    num_c = problem.num_clients

    facility_finite = np.isfinite(problem.facility_costs)
    pair_finite = np.isfinite(problem.connection_costs) & facility_finite[:, None]

    y_index = {int(i): idx for idx, i in enumerate(np.flatnonzero(facility_finite))}
    pair_list: List[Tuple[int, int]] = [
        (int(i), int(j)) for i, j in zip(*np.nonzero(pair_finite))
    ]
    x_index = {pair: len(y_index) + idx for idx, pair in enumerate(pair_list)}
    num_vars = len(y_index) + len(pair_list)
    if num_vars > max_variables:
        raise ValueError(
            f"instance too large for exact MILP: {num_vars} > {max_variables} variables"
        )

    cost = np.zeros(num_vars)
    for i, idx in y_index.items():
        cost[idx] = problem.facility_costs[i]
    for (i, j), idx in x_index.items():
        cost[idx] = problem.connection_costs[i, j]

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    row_count = 0
    for j in range(num_c):
        for i in range(num_f):
            if (i, j) in x_index:
                rows.append(row_count)
                cols.append(x_index[(i, j)])
                vals.append(1.0)
        row_count += 1
    coverage_rows = row_count
    for (i, j), idx in x_index.items():
        rows.append(row_count)
        cols.append(idx)
        vals.append(1.0)
        rows.append(row_count)
        cols.append(y_index[i])
        vals.append(-1.0)
        row_count += 1

    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(row_count, num_vars)).tocsc()
    lower = np.concatenate([np.ones(coverage_rows), -np.inf * np.ones(row_count - coverage_rows)])
    upper = np.concatenate([np.inf * np.ones(coverage_rows), np.zeros(row_count - coverage_rows)])
    constraints = LinearConstraint(matrix, lower, upper)

    result = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(num_vars),
        bounds=Bounds(0.0, 1.0),
    )
    if not result.success:
        raise RuntimeError(f"MILP solve failed: {result.message}")

    open_facilities = sorted(
        i for i, idx in y_index.items() if result.x[idx] > 0.5
    )
    return assign_to_open(problem, open_facilities)
