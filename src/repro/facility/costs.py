"""The paper's two cost functions: FDC (Eq. 1) and RDC (Eq. 2).

* **Fairness Degree Cost** — ``f_i = W(i) / (W_tol(i) − W(i))`` measures how
  loaded a node already is; a full node costs ∞ and is never chosen.
* **Range-Distance Cost** — ``c_ij = d(i,j) + range(i) + range(j)`` for
  ``i ≠ j`` (0 on the diagonal), with hop-count distance, penalising mobile
  endpoints whose actual position is uncertain.

:func:`build_storage_ufl` combines them into the weighted UFL objective with
the paper's scaling factor ``A = 1000`` ("After some tests, we set A = 1000
for better performance", Section IV-A-3).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.facility.problem import UFLProblem
from repro.simnet.topology import UNREACHABLE

#: Paper's FDC:RDC weighting (Section IV-A-3).
DEFAULT_FDC_WEIGHT = 1000.0


def fairness_degree_cost(used: float, total: float) -> float:
    """FDC of a single node (Eq. 1).  ``inf`` when the node is full."""
    if total <= 0:
        raise ValueError("total storage must be positive")
    if used < 0:
        raise ValueError("used storage cannot be negative")
    if used > total:
        raise ValueError("used storage cannot exceed total storage")
    remaining = total - used
    if remaining == 0:
        return math.inf
    return used / remaining


def fairness_degree_costs(
    used: Sequence[float], total: Sequence[float]
) -> np.ndarray:
    """Vectorised FDC over all nodes: :func:`fairness_degree_cost` per node.

    IEEE division is the same operation elementwise as on one double, so
    every cost is bitwise the scalar's; an invalid node raises the
    scalar's error for the first such node.
    """
    used_arr = np.asarray(used, dtype=float)
    total_arr = np.asarray(total, dtype=float)
    if used_arr.shape != total_arr.shape:
        raise ValueError("used and total must have the same shape")
    invalid = (total_arr <= 0) | (used_arr < 0) | (used_arr > total_arr)
    if invalid.any():
        first = int(np.argmax(invalid))
        fairness_degree_cost(used_arr[first], total_arr[first])
    with np.errstate(divide="ignore", invalid="ignore"):
        remaining = total_arr - used_arr
        costs = used_arr / remaining
    costs[remaining == 0] = math.inf
    return costs


def range_distance_costs(
    hop_matrix: np.ndarray, ranges: Sequence[float], hop_scale: float = 1.0
) -> np.ndarray:
    """RDC matrix over all node pairs (Eq. 2).

    Parameters
    ----------
    hop_matrix:
        Square matrix of hop counts; ``UNREACHABLE`` (−1) entries become
        ``inf`` (a client cannot be served across a partition).
    ranges:
        Per-node mobility range ``range(i)``.  The paper's RDC mixes metres
        (ranges) with hops (distance); ``hop_scale`` converts hops into the
        range unit.  With the paper's numbers (70 m radio range, 30 m
        mobility) one hop covers up to ~70 m, so the natural scale is the
        radio range; callers can pass 1.0 to use raw hops as the paper's
        formula literally does.
    """
    # One float copy of the hops, then every step in place.  The steps are
    # ``hops * hop_scale + range(i) + range(j)`` elementwise, in that
    # order, so the matrix is bitwise that expression's without its n×n
    # temporaries.
    cost = np.array(hop_matrix, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("hop matrix must be square")
    n = cost.shape[0]
    range_arr = np.asarray(ranges, dtype=float)
    if range_arr.shape != (n,):
        raise ValueError("ranges length must match hop matrix size")
    if np.any(range_arr < 0):
        raise ValueError("ranges must be non-negative")

    unreachable = cost == UNREACHABLE
    cost *= hop_scale
    cost[unreachable] = math.inf
    cost += range_arr[:, None]
    cost += range_arr[None, :]
    np.fill_diagonal(cost, 0.0)  # c_ii = 0 (Eq. 2 second case)
    return cost


def build_storage_ufl(
    used_storage: Sequence[float],
    total_storage: Sequence[float],
    hop_matrix: np.ndarray,
    ranges: Sequence[float],
    fdc_weight: float = DEFAULT_FDC_WEIGHT,
    hop_scale: float = 1.0,
    exclude_nodes: Optional[Sequence[int]] = None,
) -> UFLProblem:
    """Build the per-item UFL instance of Eq. 3 for the current network state.

    Every node is both a candidate facility (storage site) and a client
    (potential accessor).  ``exclude_nodes`` marks nodes that must not store
    the item (e.g. offline nodes): their facility cost becomes ``inf``.
    """
    return storage_ufl(
        used_storage,
        total_storage,
        range_distance_costs(hop_matrix, ranges, hop_scale=hop_scale),
        fdc_weight=fdc_weight,
        exclude_nodes=exclude_nodes,
    )


def storage_ufl(
    used_storage: Sequence[float],
    total_storage: Sequence[float],
    connection: np.ndarray,
    fdc_weight: float = DEFAULT_FDC_WEIGHT,
    exclude_nodes: Optional[Sequence[int]] = None,
) -> UFLProblem:
    """:func:`build_storage_ufl` over an RDC matrix built beforehand.

    The RDC changes once per topology epoch and the FDC once per
    placement, so a caller placing many items builds the first once.
    """
    if fdc_weight < 0:
        raise ValueError("FDC weight must be non-negative")
    facility = fdc_weight * fairness_degree_costs(used_storage, total_storage)
    if facility.shape[0] != connection.shape[0]:
        raise ValueError("storage vectors must match hop matrix size")
    if exclude_nodes:
        for node in exclude_nodes:
            facility[node] = math.inf
    return UFLProblem(facility_costs=facility, connection_costs=connection)
