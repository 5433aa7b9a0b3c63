"""Scale validation: node counts past the paper's sweep, and their profile.

The paper's own cells, at its 500 minutes, are checked by ``python -m
repro reproduce`` instead.  Two benches live here:

* :func:`test_scale_sweep_headline` pushes the *node count* past the
  paper's 10–50 sweep (up to 1000 nodes, 20× its ceiling) on the
  default configuration and merges the measured cells into
  ``BENCH_headline.json`` under a ``"scale"`` key.

* :func:`test_scale_profile_headline` reruns the n=400 cell under the
  continuous sampling profiler (DESIGN.md §13) and merges the top-10
  self-time hot spots into ``BENCH_headline.json`` under a ``"profile"``
  key, so perf work can be aimed at — and regressions traced to — named
  functions rather than wall-clock deltas alone.

Scenario construction is hoisted out of the timed regions: the timer
measures ``run_experiment`` — the simulation — not spec building.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.core.config import PAPER_CONFIG
from repro.metrics.report import render_table
from repro.obs.live.profiler import SamplingProfiler, top_functions
from repro.sim.runner import ExperimentSpec, run_experiment

#: The scale sweep: up to 20× the paper's 50-node ceiling.
SCALE_NODE_COUNTS = (100, 400, 1000)
#: The cell the profiler reruns (the repo benchmark's ``scale_n400`` shape).
PROFILE_NODE_COUNT = 400
SCALE_RATE = 2.0
#: Long enough for requests to fall due: a 5-minute cell delivers nothing.
SCALE_DURATION_MINUTES = 15.0
SCALE_BLOCK_INTERVAL = 30.0


def _scale_spec(node_count: int, seed: int) -> ExperimentSpec:
    """One seeded scale cell's spec."""
    config = replace(
        PAPER_CONFIG,
        data_items_per_minute=SCALE_RATE,
        expected_block_interval=SCALE_BLOCK_INTERVAL,
    )
    return ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=SCALE_DURATION_MINUTES,
        mobility_epoch_minutes=10.0,
    )


def _scale_cell(node_count: int, seed: int) -> dict:
    """Run one scale cell; set-up is inside ``wall_seconds``."""
    spec = _scale_spec(node_count, seed)
    start = time.perf_counter()
    result = run_experiment(spec)
    wall_seconds = time.perf_counter() - start
    metrics = result.metrics
    return {
        "nodes": node_count,
        "seed": seed,
        "sim_minutes": SCALE_DURATION_MINUTES,
        "items_per_minute": SCALE_RATE,
        "wall_seconds": round(wall_seconds, 1),
        "data_items_produced": metrics.data_items_produced,
        "chain_height": metrics.chain_height(),
        "deliveries": len(metrics.delivery_times),
        "mean_delivery_seconds": round(metrics.average_delivery_time(), 3),
        "storage_gini": round(metrics.storage_gini(), 4),
        "failed_requests": metrics.failed_requests,
    }


def test_scale_sweep_headline(headline_sink, bench_seed):
    cells = {
        f"n{node_count}": _scale_cell(node_count, bench_seed)
        for node_count in SCALE_NODE_COUNTS
    }
    for key, cell in cells.items():
        # The protocol must stay healthy at 20× the paper's largest sweep
        # point: the chain advances, placements keep storage balanced,
        # requests are served and nothing fails to deliver.
        assert cell["chain_height"] >= 3, f"{key}: chain stalled"
        assert cell["data_items_produced"] > 0, f"{key}: no workload"
        assert cell["deliveries"] > 0, f"{key}: no request fell due"
        assert cell["storage_gini"] < 0.15, f"{key}: unfair placement"
        assert cell["failed_requests"] == 0, f"{key}: lost deliveries"
    print(headline_sink({"scale": cells}))


@pytest.mark.profile
def test_scale_profile_headline(headline_sink, bench_seed):
    """Profile the n=400 scale cell and pin its hot spots to the record."""
    node_count = PROFILE_NODE_COUNT
    spec = _scale_spec(node_count, bench_seed)
    start = time.perf_counter()
    with SamplingProfiler(hz=199.0) as profiler:
        result = run_experiment(spec)
    wall_seconds = time.perf_counter() - start
    assert result.metrics.chain_height() >= 3

    folded = profiler.folded()
    hot = top_functions(folded, n=10)
    assert hot, "profiler captured no samples over the n=400 cell"
    print()
    print(
        render_table(
            f"Hot spots — n={node_count} cell, {profiler.samples} samples "
            f"@ {profiler.hz:g} Hz over {wall_seconds:.1f} s",
            ["function", "self", "self %", "total", "total %"],
            [
                [row["function"], row["self"], row["self_pct"],
                 row["total"], row["total_pct"]]
                for row in hot
            ],
        )
    )
    print(headline_sink({
        "profile": {
            "nodes": node_count,
            "seed": bench_seed,
            "hz": profiler.hz,
            "samples": profiler.samples,
            "wall_seconds": round(wall_seconds, 1),
            "top_functions": hot,
        }
    }))
