"""LP-relaxation + deterministic filtering/rounding UFL solver.

Solves the linear relaxation of Eq. 3–6 with HiGHS (via
:func:`scipy.optimize.linprog`), then rounds with the classic
Shmoys–Tardos–Aardal clustering:

1. Compute each client's fractional connection cost ``C*_j = Σ_i c_ij x*_ij``.
2. Process clients in increasing ``C*_j``; an unclustered client ``j``
   becomes a cluster centre, opens the cheapest facility in its fractional
   neighbourhood ``N(j) = {i : x*_ij > 0}``, and absorbs every unclustered
   client whose neighbourhood intersects ``N(j)``.
3. Reassign all clients to their cheapest open facility.

The LP optimum also serves as a certified lower bound, which the ablation
benchmark uses to report per-solver optimality gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open
from repro.obs.runtime import traced_solver

#: Fractional values below this are treated as zero when forming N(j).
_FRACTIONAL_TOL = 1e-6


@dataclass(frozen=True)
class LPResult:
    """The relaxation outcome: optimum value and fractional variables."""

    lower_bound: float
    y: np.ndarray
    x: np.ndarray  # shape (num_facilities, num_clients)


def solve_lp_relaxation(problem: UFLProblem) -> LPResult:
    """Solve the LP relaxation of the UFL instance.

    Variables with infinite cost coefficients are fixed to zero rather than
    passed to the solver.
    """
    # scipy loads with the first relaxation, not with ``repro.facility``.
    from scipy import sparse
    from scipy.optimize import linprog

    if not problem.is_feasible():
        raise ValueError("infeasible UFL instance")
    num_f = problem.num_facilities
    num_c = problem.num_clients

    facility_finite = np.isfinite(problem.facility_costs)
    pair_finite = np.isfinite(problem.connection_costs) & facility_finite[:, None]

    # Variable layout: y_i for openable facilities, then x_ij for finite pairs.
    y_index = {int(i): idx for idx, i in enumerate(np.flatnonzero(facility_finite))}
    pair_list: List[Tuple[int, int]] = [
        (int(i), int(j)) for i, j in zip(*np.nonzero(pair_finite))
    ]
    x_index = {pair: len(y_index) + idx for idx, pair in enumerate(pair_list)}
    num_vars = len(y_index) + len(pair_list)

    cost = np.zeros(num_vars)
    for i, idx in y_index.items():
        cost[idx] = problem.facility_costs[i]
    for (i, j), idx in x_index.items():
        cost[idx] = problem.connection_costs[i, j]

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    row_count = 0
    # Coverage: -Σ_i x_ij ≤ -1 for each client.
    for j in range(num_c):
        for i in range(num_f):
            if (i, j) in x_index:
                rows.append(row_count)
                cols.append(x_index[(i, j)])
                vals.append(-1.0)
        row_count += 1
    # Linking: x_ij − y_i ≤ 0.
    for (i, j), idx in x_index.items():
        rows.append(row_count)
        cols.append(idx)
        vals.append(1.0)
        rows.append(row_count)
        cols.append(y_index[i])
        vals.append(-1.0)
        row_count += 1

    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(row_count, num_vars)).tocsr()
    b_ub = np.concatenate([-np.ones(num_c), np.zeros(len(pair_list))])

    result = linprog(
        c=cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP relaxation failed: {result.message}")

    y = np.zeros(num_f)
    for i, idx in y_index.items():
        y[i] = result.x[idx]
    x = np.zeros((num_f, num_c))
    for (i, j), idx in x_index.items():
        x[i, j] = result.x[idx]
    return LPResult(lower_bound=float(result.fun), y=y, x=x)


@traced_solver("lp_rounding")
def solve_lp_rounding(problem: UFLProblem) -> UFLSolution:
    """LP relaxation followed by deterministic clustering/rounding."""
    lp = solve_lp_relaxation(problem)
    num_c = problem.num_clients

    # Fractional connection cost per client (treat inf·0 as 0).
    connection = np.where(lp.x > _FRACTIONAL_TOL, problem.connection_costs, 0.0)
    fractional_cost = (connection * lp.x).sum(axis=0)
    neighbourhoods: List[Set[int]] = [
        set(np.flatnonzero(lp.x[:, j] > _FRACTIONAL_TOL).tolist()) for j in range(num_c)
    ]

    unclustered = set(range(num_c))
    open_set: Set[int] = set()
    for center in np.argsort(fractional_cost, kind="stable"):
        center = int(center)
        if center not in unclustered:
            continue
        neighbourhood = neighbourhoods[center]
        if not neighbourhood:
            continue
        cheapest = min(
            neighbourhood, key=lambda i: (problem.facility_costs[i], i)
        )
        open_set.add(int(cheapest))
        absorbed = {
            client
            for client in unclustered
            if neighbourhoods[client] & neighbourhood
        }
        unclustered -= absorbed
    if unclustered:
        # Numerically degenerate LP (all-zero rows); fall back to opening the
        # cheapest facility each straggler can reach.
        for client in sorted(unclustered):
            reachable = np.flatnonzero(
                np.isfinite(problem.connection_costs[:, client])
                & np.isfinite(problem.facility_costs)
            )
            if reachable.size == 0:
                raise ValueError("infeasible UFL instance")
            open_set.add(int(reachable[np.argmin(problem.facility_costs[reachable])]))

    return assign_to_open(problem, sorted(open_set))
