"""The per-item paths whose per-epoch work was hoisted out of the call.

Placement and broadcast each repeated, on every call, work that only a
topology epoch fixes.  :class:`~repro.core.allocation.AllocationEngine`
now checks exactness, integrality and reachability once per epoch and
hands :meth:`~repro.facility.greedy.GreedySolver.open_set` arrays;
:meth:`~repro.simnet.transport.Network.broadcast` reads the topology's
per-epoch :class:`~repro.simnet.topology.BroadcastPlan`.  Each is held
here to what it replaced:

* **placement** — a block sequence of items, then the block, then the
  recent-cache decision with its exclusions, with full nodes and an
  epoch change between blocks: every decision's storing nodes equal
  ``tests/spec.greedy`` in ``Fraction`` and the ones the per-decision
  ``UFLProblem`` path recorded in ``tests/data/placement_sequence.json``,
  with obs off and on; on, the ``facility.place_item`` /
  ``facility.solve`` spans and the ``facility.*`` counters and
  histograms equal the recorded ones too;
* **broadcast** — against :func:`tests.helpers.reference_broadcast` (a
  fresh BFS and one ``record_hop`` per tree edge every call), in tree
  and in flood mode: the same
  deliveries in the same order at the same times, the same per-node and
  per-category trace counters, across mobility epochs and
  ``remove_node`` / ``restore_node``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.allocation import AllocationEngine
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.core.recent_blocks import select_recent_cache_nodes
from repro.facility.costs import build_storage_ufl
from repro.obs import runtime as _obs
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Topology, connected_random_positions
from repro.simnet.transport import Network
from tests import spec
from tests.helpers import reference_broadcast

pytestmark = pytest.mark.fastpath

FIXTURE = Path(__file__).parent.parent / "data" / "placement_sequence.json"

NODES = 12
CAPACITY = 40
BLOCKS = 10
#: The topology moves between these two blocks (and again later).
EPOCH_CHANGES = (4, 8)
#: A small Eq. 3 weight, so that decisions open several replicas.
CONFIG = SystemConfig(fdc_weight=20.0)


# -- placement ---------------------------------------------------------------


def _epochs() -> List[Tuple[np.ndarray, List[float]]]:
    """Three topology epochs: each a read-only hop matrix and the ranges."""
    rng = np.random.default_rng(31)
    ranges = [float(r) for r in rng.choice([0, 30], size=NODES)]
    return [
        (Topology(connected_random_positions(NODES, rng)).hop_matrix(), ranges)
        for _ in range(len(EPOCH_CHANGES) + 1)
    ]


def _blocks() -> List[Dict[str, int]]:
    """Per block: its epoch, how many items it packs and its miner."""
    rng = np.random.default_rng(47)
    return [
        {
            "epoch": sum(block >= change for change in EPOCH_CHANGES),
            "items": int(rng.integers(1, 4)),
            "miner": int(rng.integers(NODES)),
        }
        for block in range(BLOCKS)
    ]


def run_sequence(engine: AllocationEngine) -> List[Dict[str, Any]]:
    """Every decision of the block sequence, as ``derive_placement`` makes
    them: the items, then the block, each taking its slots, then the
    recent cache excluding the block's storers and the miner."""
    epochs = _epochs()
    rng = np.random.default_rng(5)
    # Two nodes start full; the rest fill up as the blocks go by.
    used = [float(u) for u in rng.integers(0, 4, size=NODES)]
    used[3] = used[9] = float(CAPACITY)
    total = [float(CAPACITY)] * NODES
    decisions: List[Dict[str, Any]] = []

    def record(kind, hops, ranges, exclude, nodes):
        decisions.append(
            {
                "kind": kind,
                "used": list(used),
                "exclude": exclude,
                "nodes": list(nodes),
                "hops": hops,
                "ranges": ranges,
            }
        )

    for block in _blocks():
        hops, ranges = epochs[block["epoch"]]
        stored: Tuple[int, ...] = ()
        for kind in ["item"] * block["items"] + ["block"]:
            try:
                stored = engine.place_item(used, total, hops, ranges).storing_nodes
            except AllocationError:
                stored = ()
            record(kind, hops, ranges, None, stored)
            for node in stored:
                used[node] = min(used[node] + 1.0, float(CAPACITY))
        exclude = sorted(set(stored) | {block["miner"]})
        recent = select_recent_cache_nodes(
            engine, used, total, hops, ranges, already_storing=stored + (block["miner"],)
        )
        record("recent", hops, ranges, exclude, recent)
    return decisions


def _span_rows(session) -> List[List[Any]]:
    by_id = {span.span_id: span for span in session.tracer.finished}
    return [
        [
            span.name,
            by_id[span.parent_id].name if span.parent_id in by_id else None,
            {key: span.attrs[key] for key in sorted(span.attrs)},
        ]
        for span in session.tracer.finished
        if span.name.startswith("facility.")
    ]


def _facility_metrics(session) -> Dict[str, Any]:
    instruments = session.metrics.snapshot()["instruments"]
    return {name: value for name, value in instruments.items() if name.startswith("facility.")}


def record_fixture() -> Dict[str, Any]:
    """What :data:`FIXTURE` holds, computed by the code under test."""
    plain = run_sequence(AllocationEngine(CONFIG))
    session = _obs.enable()
    try:
        observed = run_sequence(AllocationEngine(CONFIG))
    finally:
        _obs.disable()
    return {
        "nodes": [decision["nodes"] for decision in plain],
        "observed_nodes": [decision["nodes"] for decision in observed],
        "spans": _span_rows(session),
        "metrics": _facility_metrics(session),
    }


@pytest.fixture(scope="module")
def recorded() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current() -> Dict[str, Any]:
    return json.loads(json.dumps(record_fixture()))


class TestPlacementSequence:
    def test_sequence_covers_what_it_claims(self):
        decisions = run_sequence(AllocationEngine(CONFIG))
        kinds = {decision["kind"] for decision in decisions}
        assert kinds == {"item", "block", "recent"}
        assert any(decision["exclude"] for decision in decisions)
        assert any(CAPACITY in decision["used"] for decision in decisions)
        assert len({id(decision["hops"]) for decision in decisions}) == 3

    def test_every_decision_is_the_fraction_greedy(self):
        for decision in run_sequence(AllocationEngine(CONFIG)):
            problem = build_storage_ufl(
                decision["used"],
                [float(CAPACITY)] * NODES,
                decision["hops"],
                decision["ranges"],
                fdc_weight=CONFIG.fdc_weight,
                exclude_nodes=decision["exclude"],
            )
            if not problem.is_feasible():
                continue
            open_set, _ = spec.greedy(problem)
            assert tuple(decision["nodes"]) == open_set

    def test_storing_nodes_equal_the_recorded_ones(self, recorded, current):
        assert current["nodes"] == recorded["nodes"]

    def test_observed_run_places_the_same(self, recorded, current):
        assert current["observed_nodes"] == recorded["nodes"]
        assert recorded["observed_nodes"] == recorded["nodes"]

    def test_observed_spans_equal_the_recorded_ones(self, recorded, current):
        assert current["spans"] == recorded["spans"]
        names = {row[0] for row in recorded["spans"]}
        assert names == {"facility.place_item", "facility.solve"}

    def test_observed_metrics_equal_the_recorded_ones(self, recorded, current):
        assert current["metrics"] == recorded["metrics"]
        for name in (
            "facility.placements",
            "facility.place_cost",
            "facility.solve_cost",
            "facility.greedy.solves",
        ):
            assert name in recorded["metrics"]


# -- broadcast ---------------------------------------------------------------


def _fabric(positions, log: List[Tuple[float, int, int, Any]]):
    engine = EventEngine(seed=3)
    network = Network(engine, Topology(positions), ChannelModel())
    for node in range(len(positions)):
        network.register(
            node,
            lambda source, payload, category, node=node: log.append(
                (engine.now, node, source, payload)
            ),
        )
    return engine, network


def _counters(network: Network) -> Dict[str, Any]:
    trace = network.trace
    return {
        "nodes": [
            (t.tx_bytes, t.rx_bytes, t.tx_messages, t.rx_messages)
            for t in (trace.node(n) for n in range(network.topology.node_count))
        ],
        "categories": trace.categories(),
        "category_messages": trace.category_messages(),
        "total_messages": trace.total_messages(),
        "sent": network.messages_sent,
        "dropped": network.messages_dropped,
    }


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_broadcast_plan_equals_a_fresh_bfs(seed):
    rng = np.random.default_rng(seed)
    n = 25
    epochs = [connected_random_positions(n, rng) for _ in range(3)]
    leaving = [int(node) for node in rng.choice(n, size=4, replace=False)]
    #: step → what changes the graph before that step's broadcast.  A
    #: restored node's edges go to the end of its neighbours' adjacency,
    #: which no longer lists them in id order until the next rebuild.
    changes = {
        8: ("off", leaving[0]),
        12: ("off", leaving[1]),
        16: ("on", leaving[0]),
        20: ("move", 1),
        26: ("off", leaving[2]),
        30: ("on", leaving[1]),
        34: ("on", leaving[2]),
        40: ("move", 2),
        44: ("off", leaving[3]),
        50: ("on", leaving[3]),
    }
    logs: Tuple[List[Any], List[Any]] = ([], [])
    fabrics = [_fabric(epochs[0], log) for log in logs]
    for step, (source, size, pause) in enumerate(rng.integers(0, 1000, size=(60, 3)).tolist()):
        kind, arg = changes.get(step, ("", 0))
        for _, network in fabrics:
            if kind == "move":
                network.topology.update_positions(epochs[arg])
            elif kind:
                network.set_online(arg, kind == "on")
        category = ("block", "metadata")[pause % 2]
        mode = "flood" if step % 5 == 4 else "tree"
        reached = []
        for (engine, network), broadcast in zip(
            fabrics, (Network.broadcast, reference_broadcast)
        ):
            reached.append(
                broadcast(network, source % n, ("m", step), size, category, mode)
            )
            engine.run_until(engine.now + 0.02 * (pause % 4))
        assert reached[0] == reached[1]
    for engine, _ in fabrics:
        engine.run()
    assert logs[0] == logs[1]
    assert len(logs[0]) > 1000
    assert _counters(fabrics[0][1]) == _counters(fabrics[1][1])
    assert fabrics[0][0].events_processed == fabrics[1][0].events_processed


def test_plan_is_kept_for_the_epoch_and_dropped_with_it():
    rng = np.random.default_rng(8)
    topology = Topology(connected_random_positions(15, rng))
    plan = topology.broadcast_plan(0)
    assert topology.broadcast_plan(0) is plan
    node = plan.levels[0][0]
    topology.remove_node(node)
    fresh = topology.broadcast_plan(0)
    assert fresh is not plan and fresh.parent[node] == -1
    assert node not in fresh.reached
    topology.restore_node(node)
    assert node in topology.broadcast_plan(0).reached
    # Billing a plan's tree edges in bulk bills each of them once.
    assert sum(plan.edges) == len(plan.reached)
    assert sorted(plan.senders) == sorted(
        {plan.parent[child] for child in plan.reached}
    )
