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
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class UFLProblem:
    """One UFL instance.

    Attributes
    ----------
    facility_costs:
        Shape ``(num_facilities,)``; opening cost of each facility.  May
        contain ``inf`` for facilities that cannot be opened (full nodes).
    connection_costs:
        Shape ``(num_facilities, num_clients)``; cost for client ``j`` to
        connect to facility ``i``.  May contain ``inf`` for unreachable
        pairs (partitioned topology).
    """

    facility_costs: np.ndarray
    connection_costs: np.ndarray

    def __post_init__(self) -> None:
        facility = np.asarray(self.facility_costs, dtype=float)
        connection = np.asarray(self.connection_costs, dtype=float)
        object.__setattr__(self, "facility_costs", facility)
        object.__setattr__(self, "connection_costs", connection)
        if facility.ndim != 1:
            raise ValueError("facility_costs must be 1-D")
        if connection.ndim != 2:
            raise ValueError("connection_costs must be 2-D")
        if connection.shape[0] != facility.shape[0]:
            raise ValueError(
                "connection_costs rows must match the number of facilities"
            )
        if facility.shape[0] == 0:
            raise ValueError("need at least one facility")
        if connection.shape[1] == 0:
            raise ValueError("need at least one client")
        if np.any(facility < 0) or np.any(connection < 0):
            raise ValueError("costs must be non-negative")

    @property
    def num_facilities(self) -> int:
        return int(self.facility_costs.shape[0])

    @property
    def num_clients(self) -> int:
        return int(self.connection_costs.shape[1])

    def openable_facilities(self) -> np.ndarray:
        """Indices of facilities with finite opening cost."""
        return np.flatnonzero(np.isfinite(self.facility_costs))

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
