#!/usr/bin/env python3
"""Data migration under drift — the paper's future-work question, answered.

"Over time, data items may become obsolete, and nodes will also change the
location.  The distributed storage will not remain optimal during that
time. ... we will discuss the data migration problem, which will study how
to use less operation to achieve less offset from the optimal result."

This example places 15 data items optimally, lets the network drift
(mobility epochs + storage growth), shows how far the placements fall from
optimal, then repairs them under increasing operation budgets — printing
the operations-vs-drift frontier with a bar chart.

Run:  python examples/data_migration_study.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PAPER_CONFIG, placement_drift, plan_migration
from repro.facility import build_storage_ufl, solve_greedy
from repro.metrics import print_table
from repro.metrics.ascii_plot import bar_chart
from repro.sim import build_cluster

NODES = 20
ITEMS = 15
EPOCHS = 8


def main() -> None:
    print("=== Data migration study (paper §VII future work) ===\n")
    cluster = build_cluster(NODES, PAPER_CONFIG, seed=3)
    rng = np.random.default_rng(3)
    ranges = [PAPER_CONFIG.mobility_range] * NODES
    total = np.full(NODES, float(PAPER_CONFIG.storage_capacity))

    # 1. Optimal placements on the initial network.
    used = rng.integers(5, 60, size=NODES).astype(float)
    hops = cluster.topology.hop_matrix()
    placements = []
    for _ in range(ITEMS):
        problem = build_storage_ufl(used, total, hops, ranges)
        solution = solve_greedy(problem)
        placements.append(sorted(solution.open_facilities))
        for node in solution.open_facilities:
            used[node] += 1
    print(f"placed {ITEMS} items optimally "
          f"(replica counts: {[len(p) for p in placements]})")

    # 2. The world moves.
    for _ in range(EPOCHS):
        cluster.advance_mobility_epoch()
        used += rng.integers(0, 6, size=NODES)
        used = np.minimum(used, 240.0)
    new_hops = cluster.topology.hop_matrix()
    problem_now = build_storage_ufl(used, total, new_hops, ranges)
    drifts = [placement_drift(problem_now, p) for p in placements]
    print(f"after {EPOCHS} mobility epochs: mean drift "
          f"{np.mean(drifts):.3f}× optimal (worst {max(drifts):.3f}×)\n")

    # 3. Repair under increasing budgets.
    rows = []
    budgets = (0, 1, 2, 3, 5)
    for budget in budgets:
        final_drifts, transfers = [], 0
        for replicas in placements:
            plan = plan_migration(problem_now, replicas, max_operations=budget)
            final_drifts.append(plan.final_drift)
            transfers += plan.transfers
        rows.append(
            [budget, round(float(np.mean(final_drifts)), 4), transfers,
             f"{transfers * 1.0:.0f} MB"]
        )
    print_table(
        "Operations budget vs residual drift",
        ["ops/item", "mean drift", "data transfers", "migration traffic"],
        rows,
    )
    print(bar_chart(
        [f"{budget} ops" for budget in budgets],
        [row[1] - 1.0 for row in rows],
        unit=" drift-above-optimal",
    ))
    print("\nA couple of operations per item recovers nearly all of the")
    print("optimality the network's drift destroyed — and most repairs are")
    print("replica drops, which cost no data transfer at all.")


if __name__ == "__main__":
    main()
