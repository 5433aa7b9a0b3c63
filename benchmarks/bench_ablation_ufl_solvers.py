"""Ablation A2 — UFL solver choice: solution quality and runtime.

The paper cites Li's 1.488-approximation as the state of the art and uses
"approximation algorithms ... with high efficiency".  This bench compares
our four solvers on placement instances snapshotted from a live simulation:
cost gap to the LP lower bound, and per-solve runtime (the greedy runs in
the mining hot path, so its latency matters).
"""

from __future__ import annotations

import numpy as np
import scipy.optimize  # noqa: F401 — loaded here so no timed round pays the solvers' first import

from repro.facility.costs import build_storage_ufl
from repro.facility.greedy import solve_greedy
from repro.facility.local_search import solve_local_search
from repro.facility.lp_rounding import solve_lp_relaxation, solve_lp_rounding
from repro.facility.mip import solve_milp
from repro.metrics.report import render_table
from repro.sim.cluster import build_cluster
from repro.core.config import SystemConfig


def _snapshot_instances(node_count=14, count=5, seed=3):
    """UFL instances captured from a live cluster's storage states."""
    rng = np.random.default_rng(seed)
    cluster = build_cluster(node_count, SystemConfig(), seed=seed)
    hops = cluster.topology.hop_matrix()
    ranges = [30.0] * node_count
    instances = []
    for _ in range(count):
        used = rng.integers(1, 200, size=node_count).astype(float)
        total = np.full(node_count, 250.0)
        instances.append(build_storage_ufl(used, total, hops, ranges))
    return instances


SOLVERS = [
    ("greedy", solve_greedy),
    ("local_search", solve_local_search),
    ("lp_rounding", solve_lp_rounding),
    ("milp (exact)", solve_milp),
]


def test_ablation_solver_quality(benchmark):
    instances = _snapshot_instances()

    def evaluate():
        rows = []
        bounds = [solve_lp_relaxation(p).lower_bound for p in instances]
        for name, solver in SOLVERS:
            gaps = []
            for problem, bound in zip(instances, bounds):
                cost = solver(problem).total_cost(problem)
                gaps.append(cost / bound if bound > 0 else 1.0)
            rows.append([name, float(np.mean(gaps)), float(np.max(gaps))])
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print()
    print(
        render_table(
            "Ablation A2 — solver cost / LP lower bound",
            ["solver", "mean gap", "max gap"],
            rows,
        )
    )
    gaps = {row[0]: row[1] for row in rows}
    assert gaps["milp (exact)"] <= gaps["greedy"] + 1e-9
    assert gaps["greedy"] < 1.5  # far inside the 1.861 theory bound
    assert gaps["local_search"] <= gaps["greedy"] + 1e-9


def test_bench_greedy_solver_latency(benchmark):
    """Per-solve latency of the hot-path greedy at 50 nodes."""
    instances = _snapshot_instances(node_count=50, count=3, seed=7)

    def solve_all():
        return [solve_greedy(problem) for problem in instances]

    solutions = benchmark(solve_all)
    assert all(s.replica_count >= 1 for s in solutions)


def test_bench_milp_solver_latency(benchmark):
    """Exact MILP latency on a small instance (tests-only usage)."""
    instance = _snapshot_instances(node_count=12, count=1, seed=9)[0]
    solution = benchmark(lambda: solve_milp(instance))
    assert solution.replica_count >= 1
