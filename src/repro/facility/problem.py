"""Uncapacitated Facility Location (UFL) problem model.

The paper casts per-item storage placement as UFL (Section IV-A-3): the
Fairness Degree Cost plays the facility-opening cost and the Range-Distance
Cost plays the client-connection cost:

    min  A·Σ_i f_i y_ik  +  Σ_i Σ_j c_ij x_ijk        (Eq. 3)
    s.t. Σ_i x_ijk ≥ 1   ∀j                            (Eq. 4)
         y_ik ≥ x_ijk    ∀i,j                          (Eq. 5)
         x, y ∈ {0,1}                                  (Eq. 6)

This module defines the instance (:class:`UFLProblem`) and solution
(:class:`UFLSolution`) types shared by every solver, plus validation and
cost evaluation.  Facilities with no remaining storage have infinite opening
cost (Eq. 1 at W = W_tol) and must never be opened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence, Tuple

import numpy as np

#: Below this bound on ``max P · max Q`` over the ratios ``P/Q`` the
#: greedy compares, distinct ratios round to distinct doubles.
RATIO_BOUND = 2**52


@dataclass(frozen=True)
class UFLProblem:
    """One UFL instance, held exactly.

    Attributes
    ----------
    opening_num, opening_den:
        Shape ``(num_facilities,)``; facility ``i`` opens for exactly
        ``opening_num[i] / opening_den[i]``.  Both are non-negative
        integers; a denominator of 0 means the facility cannot open (a
        full or excluded node).
    connection_costs:
        Shape ``(num_facilities, num_clients)``; cost for client ``j`` to
        connect to facility ``i``: a non-negative integer, or ``inf`` for
        an unreachable pair (partitioned topology).
    facility_costs:
        The opening costs as doubles (``inf`` where the denominator is
        0), for the solvers that work in floats and for
        :meth:`UFLSolution.total_cost`.

    The constructor raises ``ValueError`` unless every cost is integral
    and the largest star ratio's numerator times the largest denominator
    stays below :data:`RATIO_BOUND`.
    """

    opening_num: np.ndarray
    opening_den: np.ndarray
    connection_costs: np.ndarray
    facility_costs: np.ndarray = field(init=False, repr=False, compare=False)

    #: The last read-only connection matrix checked, with its largest
    #: finite row sum: the allocator hands in one per topology epoch, so
    #: an epoch pays the O(F·C) check once.
    _checked: ClassVar[Tuple[np.ndarray, float]] = (np.empty((0, 0)), 0.0)

    def __post_init__(self) -> None:
        num = np.asarray(self.opening_num, dtype=float)
        den = np.asarray(self.opening_den, dtype=float)
        connection = np.asarray(self.connection_costs, dtype=float)
        object.__setattr__(self, "opening_num", num)
        object.__setattr__(self, "opening_den", den)
        object.__setattr__(self, "connection_costs", connection)
        if num.ndim != 1 or num.shape != den.shape:
            raise ValueError(
                "opening numerators and denominators must be 1-D and alike"
            )
        if connection.ndim != 2:
            raise ValueError("connection_costs must be 2-D")
        if connection.shape[0] != num.shape[0]:
            raise ValueError(
                "connection_costs rows must match the number of facilities"
            )
        if num.shape[0] == 0:
            raise ValueError("need at least one facility")
        if connection.shape[1] == 0:
            raise ValueError("need at least one client")
        opening = np.concatenate((num, den))
        if opening.min() < 0:
            raise ValueError("costs must be non-negative")
        if not (opening.max() < math.inf and (np.floor(opening) == opening).all()):
            raise ValueError("opening costs must be ratios of finite integers")
        # Every star ratio is P/Q with P <= num + den·(row sum) and
        # Q <= den·num_clients; an open facility's has den = 1.
        scale = max(int(den.max()), 1)
        largest = int(num.max()) + scale * self._largest_row_sum(connection)
        if largest * scale * connection.shape[1] >= RATIO_BOUND:
            raise ValueError(
                "costs too large to compare exactly: ratio numerator "
                f"{largest} times denominator {scale * connection.shape[1]} "
                "is not below 2**52"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            facility = num / den
        facility[den == 0] = math.inf
        object.__setattr__(self, "facility_costs", facility)

    @classmethod
    def _largest_row_sum(cls, connection: np.ndarray) -> int:
        """The largest sum of a row's finite costs, once the matrix is
        checked to hold only non-negative integers and ``inf``."""
        held, largest = cls._checked
        if connection is held:
            return largest
        if np.any(connection < 0):
            raise ValueError("costs must be non-negative")
        if not np.array_equal(np.floor(connection), connection):
            raise ValueError("connection costs must be integers or inf")
        finite = np.isfinite(connection)
        largest = int(np.sum(connection, axis=1, where=finite).max())
        if connection.flags.owndata and not connection.flags.writeable:
            cls._checked = (connection, largest)
        return largest

    @property
    def num_facilities(self) -> int:
        return int(self.opening_num.shape[0])

    @property
    def num_clients(self) -> int:
        return int(self.connection_costs.shape[1])

    def openable_facilities(self) -> np.ndarray:
        """Indices of facilities that can open (non-zero denominator)."""
        return np.flatnonzero(self.opening_den)

    def is_feasible(self) -> bool:
        """True iff every client can reach some openable facility finitely."""
        openable = self.openable_facilities()
        if openable.size == 0:
            return False
        reachable = np.isfinite(self.connection_costs[openable, :])
        return bool(np.all(reachable.any(axis=0)))


@dataclass(frozen=True)
class UFLSolution:
    """A feasible solution: the open set and each client's serving facility."""

    open_facilities: Tuple[int, ...]
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "open_facilities", tuple(sorted(set(self.open_facilities))))
        object.__setattr__(self, "assignment", tuple(self.assignment))

    @property
    def replica_count(self) -> int:
        """Number of open facilities — the item's storage replica count."""
        return len(self.open_facilities)

    def facility_cost(self, problem: UFLProblem) -> float:
        return float(sum(problem.facility_costs[i] for i in self.open_facilities))

    def connection_cost(self, problem: UFLProblem) -> float:
        return float(
            sum(
                problem.connection_costs[facility, client]
                for client, facility in enumerate(self.assignment)
            )
        )

    def total_cost(self, problem: UFLProblem) -> float:
        return self.facility_cost(problem) + self.connection_cost(problem)

    def validate(self, problem: UFLProblem) -> None:
        """Raise ``ValueError`` on any constraint violation."""
        if len(self.assignment) != problem.num_clients:
            raise ValueError("assignment must cover every client")
        open_set = set(self.open_facilities)
        if not open_set:
            raise ValueError("at least one facility must be open")
        for facility in open_set:
            if not (0 <= facility < problem.num_facilities):
                raise ValueError(f"facility index {facility} out of range")
            if not math.isfinite(problem.facility_costs[facility]):
                raise ValueError(f"facility {facility} has infinite opening cost")
        for client, facility in enumerate(self.assignment):
            if facility not in open_set:
                raise ValueError(
                    f"client {client} assigned to closed facility {facility}"
                )
            if not math.isfinite(problem.connection_costs[facility, client]):
                raise ValueError(
                    f"client {client} unreachable from facility {facility}"
                )


def frozen(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as an array nobody writes: itself when it is an owned
    read-only array, else a read-only copy.

    An epoch cache keeps the input it was built from and compares later
    inputs against it; holding a caller's writable array would let one
    in-place edit change both sides of that comparison.
    """
    if matrix.flags.owndata and not matrix.flags.writeable:
        return matrix
    held = np.array(matrix)
    held.flags.writeable = False
    return held


def assign_to_open(problem: UFLProblem, open_facilities: Sequence[int]) -> UFLSolution:
    """Optimal assignment given a fixed open set (each client → cheapest).

    Raises ``ValueError`` if some client cannot finitely reach any open
    facility.
    """
    open_list = sorted(set(open_facilities))
    if not open_list:
        raise ValueError("open set must be non-empty")
    submatrix = problem.connection_costs[open_list, :]
    best_rows = np.argmin(submatrix, axis=0)
    best_costs = submatrix[best_rows, np.arange(problem.num_clients)]
    if not np.all(np.isfinite(best_costs)):
        unreachable = np.flatnonzero(~np.isfinite(best_costs)).tolist()
        raise ValueError(f"clients {unreachable} cannot reach the open set")
    assignment = tuple(np.asarray(open_list)[best_rows].tolist())
    return UFLSolution(open_facilities=tuple(open_list), assignment=assignment)


def solution_cost_of_open_set(
    problem: UFLProblem, open_facilities: Sequence[int]
) -> float:
    """Total cost of the best solution with exactly this open set.

    Returns ``inf`` when the set is empty, contains an unopenable facility,
    or leaves a client unreachable — convenient for search loops.
    """
    open_list = sorted(set(open_facilities))
    if not open_list:
        return math.inf
    facility_cost = float(problem.facility_costs[open_list].sum())
    if not math.isfinite(facility_cost):
        return math.inf
    submatrix = problem.connection_costs[open_list, :]
    best = submatrix.min(axis=0)
    if not np.all(np.isfinite(best)):
        return math.inf
    return facility_cost + float(best.sum())
