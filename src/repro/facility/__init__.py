"""Facility-location placement for the storage-allocation problem.

The paper maps per-item storage placement to Uncapacitated Facility
Location (Section IV-A-3).  This package provides the instance model, the
paper's FDC/RDC cost builders, and the two solvers a run can place with:

* :class:`GreedySolver` — dual-fitting greedy, the one placement solve
  (its caches outlive a solve),
* :func:`solve_random` — the paper's replica-matched random baseline.
"""

from repro.facility.costs import (
    DEFAULT_FDC_WEIGHT,
    build_storage_ufl,
    fairness_degree_cost,
    fairness_degree_costs,
    range_distance_costs,
)
from repro.facility.greedy import GreedySolver
from repro.facility.problem import (
    UFLProblem,
    UFLSolution,
    assign_to_open,
    solution_cost_of_open_set,
)
from repro.facility.random_baseline import solve_random

__all__ = [
    "UFLProblem",
    "UFLSolution",
    "assign_to_open",
    "solution_cost_of_open_set",
    "fairness_degree_cost",
    "fairness_degree_costs",
    "range_distance_costs",
    "build_storage_ufl",
    "DEFAULT_FDC_WEIGHT",
    "GreedySolver",
    "solve_random",
]
