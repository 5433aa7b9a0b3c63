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
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.facility.problem import UFLProblem
from repro.simnet.topology import UNREACHABLE

#: Paper's FDC:RDC weighting (Section IV-A-3).
DEFAULT_FDC_WEIGHT = 1000.0


#: Eq. 1's input errors, in the order one node is checked.
_FDC_ERRORS = (
    "total storage must be positive",
    "used storage cannot be negative",
    "used storage cannot exceed total storage",
)


def fairness_degree_terms(
    used: Sequence[float], total: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 1 per node as its two terms ``(W, W_tol − W)``.

    Node i's FDC is exactly the first over the second, ∞ where the second
    is 0 (a full node).  An invalid node raises; with several, the first.
    """
    used_arr = np.asarray(used, dtype=float)
    total_arr = np.asarray(total, dtype=float)
    if used_arr.shape != total_arr.shape:
        raise ValueError("used and total must have the same shape")
    invalid = (total_arr <= 0) | (used_arr < 0) | (used_arr > total_arr)
    if invalid.any():
        first = int(np.argmax(invalid))
        used_first, total_first = used_arr[first], total_arr[first]
        raise ValueError(
            _FDC_ERRORS[0 if total_first <= 0 else 1 if used_first < 0 else 2]
        )
    return used_arr, total_arr - used_arr


def fairness_degree_costs(
    used: Sequence[float], total: Sequence[float]
) -> np.ndarray:
    """Eq. 1 per node as doubles: :func:`fairness_degree_terms` divided."""
    used_arr, remaining = fairness_degree_terms(used, total)
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = used_arr / remaining
    costs[remaining == 0] = math.inf
    return costs


def fairness_degree_cost(used: float, total: float) -> float:
    """FDC of a single node (Eq. 1).  ``inf`` when the node is full."""
    return float(fairness_degree_costs([used], [total])[0])


def range_distance_costs(
    hop_matrix: np.ndarray, ranges: Sequence[float]
) -> np.ndarray:
    """RDC matrix over all node pairs (Eq. 2).

    Parameters
    ----------
    hop_matrix:
        Square matrix of hop counts; ``UNREACHABLE`` (−1) entries become
        ``inf`` (a client cannot be served across a partition).
    ranges:
        Per-node mobility range ``range(i)``, added to raw hops as the
        paper's formula literally does.
    """
    # One float copy of the hops, then every step in place:
    # ``hops + range(i) + range(j)`` without its n×n temporaries.
    cost = np.array(hop_matrix, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("hop matrix must be square")
    n = cost.shape[0]
    range_arr = np.asarray(ranges, dtype=float)
    if range_arr.shape != (n,):
        raise ValueError("ranges length must match hop matrix size")
    if np.any(range_arr < 0):
        raise ValueError("ranges must be non-negative")

    cost[cost == UNREACHABLE] = math.inf
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
    exclude_nodes: Optional[Sequence[int]] = None,
) -> UFLProblem:
    """Build the per-item UFL instance of Eq. 3 for the current network state.

    Every node is both a candidate facility (storage site) and a client
    (potential accessor); facility i opens for exactly ``A·W / (W_tol −
    W)``.  ``exclude_nodes`` marks nodes that must not store the item
    (e.g. offline nodes): they cannot open.
    """
    connection = range_distance_costs(hop_matrix, ranges)
    if fdc_weight < 0:
        raise ValueError("FDC weight must be non-negative")
    used, remaining = fairness_degree_terms(used_storage, total_storage)
    if used.shape[0] != connection.shape[0]:
        raise ValueError("storage vectors must match hop matrix size")
    if exclude_nodes:
        remaining[list(exclude_nodes)] = 0.0
    return UFLProblem(fdc_weight * used, remaining, connection)
