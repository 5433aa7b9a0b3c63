"""Ablation A6 — data migration: operations vs drift (the paper's §VII).

"how to use less operation to achieve less offset from the optimal result"

Method: take placements that were optimal on an initial topology, advance
the network through mobility epochs (hop distances shift, storage fills
drift), and measure how far those stale placements drift from the new
optimum.  Then sweep the repair budget: how many add/drop/swap operations
does it take to pull the drift back down?

The printed frontier is the answer the paper's future-work section asks
for; the assertions pin its shape (drift accumulates without migration;
the first couple of operations recover most of it).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SystemConfig
from repro.core.migration import placement_drift, plan_migration
from repro.facility.costs import build_storage_ufl
from repro.facility.greedy import solve_greedy
from repro.metrics.report import render_table
from repro.sim.cluster import build_cluster

EPOCHS = 6
ITEMS = 20
BUDGETS = (0, 1, 2, 4)


def _drift_study(seed: int = 5, node_count: int = 20):
    """Returns per-budget mean drift after topology churn."""
    cluster = build_cluster(node_count, SystemConfig(), seed=seed)
    rng = np.random.default_rng(seed)
    ranges = [30.0] * node_count
    total = np.full(node_count, 250.0)

    # Place ITEMS items optimally on the initial topology.
    used = rng.integers(5, 60, size=node_count).astype(float)
    hops = cluster.topology.hop_matrix()
    placements = []
    for _ in range(ITEMS):
        problem = build_storage_ufl(used, total, hops, ranges)
        solution = solve_greedy(problem)
        placements.append(set(solution.open_facilities))
        for node in solution.open_facilities:
            used[node] += 1

    # Let the world move: several mobility epochs + storage drift.
    for _ in range(EPOCHS):
        cluster.advance_mobility_epoch()
        used += rng.integers(0, 8, size=node_count)
        used = np.minimum(used, 240.0)
    new_hops = cluster.topology.hop_matrix()
    problem_now = build_storage_ufl(used, total, new_hops, ranges)

    stale_drifts = [
        placement_drift(problem_now, sorted(replicas)) for replicas in placements
    ]
    results = {0: float(np.mean(stale_drifts))}
    transfer_counts = {0: 0}
    for budget in BUDGETS[1:]:
        drifts, transfers = [], 0
        for replicas in placements:
            plan = plan_migration(problem_now, sorted(replicas), max_operations=budget)
            drifts.append(plan.final_drift)
            transfers += plan.transfers
        results[budget] = float(np.mean(drifts))
        transfer_counts[budget] = transfers
    return results, transfer_counts


def test_ablation_migration_frontier(benchmark):
    results, transfers = benchmark.pedantic(_drift_study, rounds=1, iterations=1)
    rows = [
        [budget, results[budget], transfers[budget],
         transfers[budget] * 1.0]  # 1 MB per transferred replica
        for budget in BUDGETS
    ]
    print()
    print(
        render_table(
            "Ablation A6 — migration budget vs placement drift "
            f"(drift = cost / optimal, {ITEMS} items, {EPOCHS} epochs of churn)",
            ["ops budget", "mean drift", "data transfers", "traffic (MB)"],
            rows,
        )
    )
    # Drift accumulated while the topology moved.
    assert results[0] > 1.0
    # Migration monotonically recovers toward optimal.
    drifts = [results[b] for b in BUDGETS]
    assert drifts == sorted(drifts, reverse=True)
    # A small budget recovers most of the drift (the paper's "less
    # operation, less offset" trade-off has a steep front).
    recovered_by_2 = (results[0] - results[2]) / max(results[0] - 1.0, 1e-9)
    assert recovered_by_2 > 0.5
