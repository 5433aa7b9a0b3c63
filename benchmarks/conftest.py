"""Shared fixtures for the benchmark harness.

The expensive simulation sweeps are session-scoped so the per-panel
benchmarks (Fig. 4a/b/c share one sweep; Fig. 5a/b share another) run the
workload once and each render their own panel.  The sweeps themselves are
:func:`repro.sim.scenarios.fig4_grid` / :func:`~repro.sim.scenarios.fig5_grid`
run by :func:`~repro.sim.scenarios.run_grid`, the same loops ``repro fig4``
/ ``repro fig5`` run, averaged per cell over the paper's two seeds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.obs.export import write_json
from repro.sim.scenarios import cell_average, fig4_grid, fig5_grid, run_grid
from repro.version import package_version

#: Seed for the single-cell benches (full-scale anchor, scale sweep); the
#: averaged sweeps use ``range(scenarios.PAPER_SEED_COUNT)`` instead.
BENCH_SEED = 5

#: Where the headline sweep record accumulates the perf trajectory.
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_HEADLINE_NAME = "BENCH_headline.json"


@pytest.fixture(scope="session")
def headline_sink():
    """Merging writer for the repo-root ``BENCH_headline.json`` record.

    Read-modify-write: the payload's top-level keys are merged into the
    existing record (the way ``bench_federation`` merges its grid), so
    independent bench modules — the headline sweep, the federation
    sweep, the scale sweep — can each contribute their section without
    clobbering the others.  Successive commits then carry a comparable
    perf fingerprint at a fixed path.
    """

    def write(payload: dict) -> Path:
        target = REPO_ROOT / BENCH_HEADLINE_NAME
        record = (
            json.loads(target.read_text(encoding="utf-8"))
            if target.exists()
            else {}
        )
        record.update(payload)
        record["schema"] = "repro.bench.headline/v1"
        record["version"] = package_version()
        return write_json(record, target)

    return write


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """The shared seed for single-cell benches (see :data:`BENCH_SEED`)."""
    return BENCH_SEED


@pytest.fixture(scope="session")
def fig4_sweep() -> Dict[Tuple[int, float], dict]:
    """The Fig. 4 grid: node count × data rate, averaged over seeds."""
    grid = run_grid(fig4_grid())
    return {cell: cell_average(runs) for cell, runs in grid.items()}


@pytest.fixture(scope="session")
def fig5_sweep() -> Dict[Tuple[str, int], dict]:
    """The Fig. 5 grid: placement strategy × node count (1 item/minute)."""
    grid = run_grid(fig5_grid())
    return {cell: cell_average(runs) for cell, runs in grid.items()}
