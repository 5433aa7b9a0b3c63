"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import tests.helpers as _helpers
from repro.core.account import Account
from repro.core.config import SystemConfig
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Position, Topology, connected_random_positions

#: ``--hypothesis-profile=ci``: a failing example also prints the blob
#: that replays it (``@reproduce_failure``), so a CI log is enough to
#: reproduce a differential failure locally.
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def rng():
    """A fixed-seed numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def engine():
    """A fresh deterministic event engine."""
    return EventEngine(seed=42)


@pytest.fixture
def small_topology(engine):
    """A connected 8-node topology in the paper's field geometry."""
    positions = connected_random_positions(8, engine.np_rng)
    return Topology(positions)


@pytest.fixture
def line_topology():
    """Five nodes in a line, 50 m apart (range 70 m → chain graph)."""
    positions = [Position(50.0 * i, 0.0) for i in range(5)]
    return Topology(positions, comm_range=70.0)


@pytest.fixture
def account():
    """A deterministic test account."""
    return Account.for_node(simulation_seed=99, node_id=0)


@pytest.fixture
def fast_config():
    """A small-scale config for quick protocol tests."""
    return SystemConfig(
        storage_capacity=40,
        expected_block_interval=10.0,
        data_items_per_minute=2.0,
        simulation_minutes=5.0,
        recent_cache_capacity=4,
    )


@pytest.fixture
def make_cluster():
    """Factory fixture: build (and start) a wired simulation cluster.

    Thin injection wrapper over :func:`tests.helpers.make_cluster` — see
    there for the knobs (``consensus="pow"``, config overrides,
    ``run_until=...``).
    """
    return _helpers.make_cluster


@pytest.fixture
def fixed_seed_run(request):
    """Factory fixture: a seeded end-to-end run, cached per test module.

    Calls with identical parameters from tests in the same module share
    one :class:`ExperimentResult` — the replacement for copy-pasted
    module-scoped run fixtures.  Mutating the shared cluster (advancing
    its engine) is visible to the module's other tests, exactly like the
    fixtures it replaces.
    """

    def _run(*args, **kwargs):
        kwargs.setdefault("cache_scope", request.module.__name__)
        return _helpers.fixed_seed_run(*args, **kwargs)

    return _run
