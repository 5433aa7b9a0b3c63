"""Facility-location solver suite for the storage-allocation problem.

The paper maps per-item storage placement to Uncapacitated Facility
Location (Section IV-A-3).  This package provides the instance model, the
paper's FDC/RDC cost builders, and the two solvers a run can place with:

* :func:`solve_greedy` / :class:`GreedySolver` — dual-fitting greedy, the
  one placement solve (one-shot, and with caches that outlive a solve),
* :func:`solve_random` — the paper's replica-matched random baseline.

Three more are library functions for the solver ablation
(``benchmarks/bench_ablation_ufl_solvers.py``) and the quality tests,
not run modes:

* :func:`solve_local_search` — add/drop/swap refinement,
* :func:`solve_lp_rounding` — LP relaxation + deterministic rounding (also
  yields a certified lower bound via :func:`solve_lp_relaxation`),
* :func:`solve_milp` — exact optimum on small instances.
"""

from repro.facility.costs import (
    DEFAULT_FDC_WEIGHT,
    build_storage_ufl,
    fairness_degree_cost,
    fairness_degree_costs,
    range_distance_costs,
)
from repro.facility.greedy import GreedySolver, solve_greedy
from repro.facility.local_search import solve_local_search
from repro.facility.lp_rounding import LPResult, solve_lp_relaxation, solve_lp_rounding
from repro.facility.mip import solve_milp
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
    "solve_greedy",
    "solve_local_search",
    "solve_lp_relaxation",
    "solve_lp_rounding",
    "LPResult",
    "solve_milp",
    "solve_random",
]
