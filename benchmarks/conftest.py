"""Shared fixtures for the benchmark harness.

The paper's figures are not benches: ``python -m repro reproduce`` runs
and checks them (see :func:`repro.sim.scenarios.reproduce`).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.export import write_json
from repro.version import package_version

#: Seed for the single-cell benches (the scale sweep and its profile).
BENCH_SEED = 5

#: Where the headline sweep record accumulates the perf trajectory.
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_HEADLINE_NAME = "BENCH_headline.json"


@pytest.fixture(scope="session")
def headline_sink():
    """Merging writer for the repo-root ``BENCH_headline.json`` record.

    Read-modify-write: the payload's top-level keys are merged into the
    existing record, so independent bench modules — the lifecycle cell,
    the scale sweep — can each contribute their section without
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

