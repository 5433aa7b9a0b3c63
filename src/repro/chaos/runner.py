"""Chaos scenario runner: drive a ChaosSpec through either fabric.

The sim path composes the scenario's adversary mix with the existing
experiment runner (``node_classes`` plants the adversaries, ``churn``
reuses the churn injector, and a partition overlay is scheduled through
:meth:`~repro.simnet.faults.PartitionInjector.schedule` between build and
:func:`~repro.sim.runner.advance`).  The live path
runs the same adversary classes over real sockets via the live cluster
harness, optionally with a kill/restart fault.

Either way the result carries the standard figure-level metrics plus the
chaos verdict (:mod:`repro.chaos.verdict`), and keeps the node map
around so tests can inspect admission state directly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Union

from repro.chaos.scenario import ChaosSpec, node_classes_for
from repro.chaos.verdict import compute_verdict
from repro.metrics.collector import RunMetrics
from repro.obs.export import write_json
from repro.obs import runtime as _obs

PathLike = Union[str, Path]

CHAOS_VERDICT_NAME = "chaos_verdict.json"


@dataclass
class ChaosRunResult:
    """A finished chaos run: verdict + metrics + inspectable nodes."""

    spec: ChaosSpec
    verdict: Dict[str, Any]
    metrics: RunMetrics
    nodes: Dict[int, Any]

    @property
    def status(self) -> str:
        return self.verdict["status"]

    @property
    def honest_digest(self) -> str:
        return self.verdict["honest_digest"]

    def write_verdict(self, path: PathLike) -> Path:
        return write_json(self.verdict, path)


def run_chaos_sim(spec: ChaosSpec) -> ChaosRunResult:
    """Run a chaos scenario on the simulator fabric."""
    from repro.sim.runner import (
        ExperimentSpec,
        advance,
        build_runtime,
        collect_metrics,
    )
    from repro.simnet.faults import PartitionInjector

    experiment = ExperimentSpec(
        node_count=spec.node_count,
        config=spec.config,
        seed=spec.seed,
        duration_minutes=spec.duration_minutes,
        churn=spec.churn,
        node_classes=node_classes_for(spec),
    )
    runtime = build_runtime(experiment)
    if spec.partition is not None:
        group_a, group_b = spec.partition.groups(spec.node_count)
        injector = PartitionInjector(runtime.cluster.network, runtime.engine)
        injector.schedule(
            list(group_a),
            list(group_b),
            at=spec.partition.at_minutes * 60.0,
            heal_at=spec.partition.heal_minutes * 60.0,
        )
    advance(runtime)
    metrics = collect_metrics(runtime)
    nodes = dict(runtime.cluster.nodes)
    verdict = compute_verdict(spec, nodes)
    return ChaosRunResult(spec=spec, verdict=verdict, metrics=metrics, nodes=nodes)


def run_chaos_live(spec: ChaosSpec) -> ChaosRunResult:
    """Run a chaos scenario over real sockets (live fabric)."""
    from repro.net.harness import LiveClusterHarness, LiveSpec

    live_spec = LiveSpec(
        node_count=spec.node_count,
        config=spec.config,
        seed=spec.seed,
        duration_minutes=spec.duration_minutes,
        time_scale=spec.time_scale,
        kill=spec.kill,
        node_classes=node_classes_for(spec),
    )
    harness = LiveClusterHarness(live_spec)

    async def _main():
        with _obs.span(
            "chaos.live", "chaos", seed=spec.seed, nodes=spec.node_count
        ):
            return await harness.run()

    live_result = asyncio.run(_main())
    nodes = {node_id: live.node for node_id, live in harness.nodes.items()}
    verdict = compute_verdict(spec, nodes)
    verdict["live"] = {
        "healthy": live_result.healthy,
        "restarted": list(live_result.restarted),
        "resynced": live_result.resynced,
        "reconnects": live_result.reconnects,
    }
    return ChaosRunResult(
        spec=spec, verdict=verdict, metrics=live_result.metrics, nodes=nodes
    )


def run_chaos(spec: ChaosSpec) -> ChaosRunResult:
    """Fabric-dispatching front door."""
    if spec.fabric == "live":
        return run_chaos_live(spec)
    return run_chaos_sim(spec)
