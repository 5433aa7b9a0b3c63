"""Experiment runner: drives a cluster through a full workload.

Reproduces the paper's Section VI methodology end to end: Poisson data
production, 10 %-of-nodes request patterns, periodic mobility epochs,
optional churn windows, then collects the figure-level metrics.

A run has three phases, so the persistence subsystem
(:mod:`repro.persist`) can journal one mid-flight and resume it by
replay:

* :func:`build_runtime` wires the cluster, schedules the whole workload,
  and returns a :class:`SimRuntime`, a pure function of the spec;
* :func:`advance` moves a simulated runtime to its duration or to a
  pause point, optionally in segments with a callback after each;
  plain, durable and adversary runs all advance through it;
* :func:`collect_metrics` derives the figure-level :class:`RunMetrics`
  from a finished runtime.

:func:`run_experiment` composes the three for the common one-shot case.
The request policy (:func:`fire_request`) and the metric collection
(:func:`collect_node_metrics`) do not depend on the fabric; the live
harness (:mod:`repro.net.harness`) calls them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.node import EdgeNode
from repro.metrics.collector import RunMetrics, collect_run_metrics
from repro.obs import runtime as _obs
from repro.sim.cluster import EdgeCluster, build_cluster
from repro.simnet.faults import ChurnInjector
from repro.simnet.trace import TransmissionTrace
from repro.workloads.generator import ProductionEvent, generate_production_schedule
from repro.workloads.requests import plan_requests

#: A request that beats its metadata onto the chain retries this often.
_REQUEST_RETRY_SECONDS = 60.0

#: ... at most this many times before counting as failed.
_REQUEST_MAX_RETRIES = 5


@dataclass(frozen=True)
class ChurnSpec:
    """Random disconnection windows for a fraction of nodes."""

    node_fraction: float = 0.2
    events_per_node: float = 2.0
    mean_downtime_seconds: float = 120.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.node_fraction <= 1.0):
            raise ValueError("node fraction must be in [0, 1]")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines one run."""

    node_count: int
    config: SystemConfig
    seed: int = 0
    duration_minutes: Optional[float] = None  # default: config.simulation_minutes
    mobility_epoch_minutes: float = 10.0  # 0 disables mobility resampling
    churn: Optional[ChurnSpec] = None
    #: node id → EdgeNode subclass, for planting adversaries
    #: (e.g. repro.core.adversary.DenyingNode) among honest nodes.
    node_classes: Optional[Dict[int, type]] = None

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("a blockchain network needs at least 2 nodes")
        if self.duration_minutes is not None and self.duration_minutes < 0:
            raise ValueError("duration cannot be negative")
        if not math.isfinite(self.duration_seconds):
            raise ValueError("duration must be finite")

    @property
    def duration_seconds(self) -> float:
        minutes = (
            self.duration_minutes
            if self.duration_minutes is not None
            else self.config.simulation_minutes
        )
        return minutes * 60.0


@dataclass
class ExperimentResult:
    """The run's metrics plus the cluster for deeper inspection."""

    spec: ExperimentSpec
    metrics: RunMetrics
    cluster: EdgeCluster


def fire_request(node: EdgeNode, data_id: str, attempt: int = 0) -> None:
    """``node`` requests ``data_id``, retrying until its metadata is on-chain.

    An offline requester skips (it has no radio).  While the item is not
    yet on the node's chain the request retries every
    :data:`_REQUEST_RETRY_SECONDS`, at most :data:`_REQUEST_MAX_RETRIES`
    times, and then counts as failed.
    """
    if not node.online:
        return
    if node.chain.metadata_of(data_id) is None:
        if attempt < _REQUEST_MAX_RETRIES:
            node.engine.schedule(
                _REQUEST_RETRY_SECONDS, fire_request, node, data_id, attempt + 1
            )
        else:
            node.counters.data_requests_failed += 1
        return
    node.request_data(data_id)


class _RequestDriver:
    """Schedules a single data request (see :func:`fire_request`)."""

    def __init__(self, cluster: EdgeCluster):
        self.cluster = cluster

    def schedule(self, requester: int, data_id: str, when: float) -> None:
        self.cluster.engine.call_at(when, self._fire, requester, data_id, 0)

    def _fire(self, requester: int, data_id: str, attempt: int) -> None:
        fire_request(self.cluster.nodes[requester], data_id, attempt)


class _ProductionDriver:
    """Fires scheduled data productions and fans out the request pattern."""

    def __init__(
        self,
        cluster: EdgeCluster,
        spec: ExperimentSpec,
        requests: _RequestDriver,
    ):
        self.cluster = cluster
        self.spec = spec
        self.requests = requests

    def produce(self, event: ProductionEvent) -> None:
        node = self.cluster.nodes[event.producer]
        if not node.online:
            return
        metadata = node.produce_data(
            data_type=event.data_type,
            location=event.location,
            properties=event.properties,
        )
        plan = plan_requests(
            node_count=self.spec.node_count,
            producer=event.producer,
            production_time=self.cluster.engine.now,
            requester_fraction=self.spec.config.requester_fraction,
            rng=self.cluster.engine.np_rng,
        )
        for requester, when in zip(plan.requesters, plan.times):
            self.requests.schedule(requester, metadata.data_id, when)


class _MobilityDriver:
    """Periodic mobility epochs, self-rescheduling until the run ends."""

    def __init__(self, cluster: EdgeCluster, period: float, duration: float):
        self.cluster = cluster
        self.period = period
        self.duration = duration

    def start(self) -> None:
        self.cluster.engine.schedule(self.period, self.tick)

    def tick(self) -> None:
        self.cluster.advance_mobility_epoch()
        if self.cluster.engine.now + self.period < self.duration:
            self.cluster.engine.schedule(self.period, self.tick)


class _ReconnectHook:
    """Churn ``on_up`` callback: restart the node's protocol."""

    def __init__(self, cluster: EdgeCluster):
        self.cluster = cluster

    def __call__(self, node: int) -> None:
        self.cluster.nodes[node].on_reconnect()


@dataclass
class SimRuntime:
    """A fully wired, ready-to-run simulation.

    Everything a run needs — cluster, drivers, and the engine's pending
    event queue they populate — hangs off this one object.
    """

    spec: ExperimentSpec
    cluster: EdgeCluster
    production: _ProductionDriver
    requests: _RequestDriver
    mobility: Optional[_MobilityDriver] = None
    churn: Optional[ChurnInjector] = None

    @property
    def engine(self):
        return self.cluster.engine


def build_runtime(spec: ExperimentSpec) -> SimRuntime:
    """Build the cluster, schedule the full workload, and arm mining."""
    with _obs.span("run.build", "run", nodes=spec.node_count, seed=spec.seed):
        cluster = build_cluster(
            spec.node_count, spec.config, seed=spec.seed, node_classes=spec.node_classes
        )
        production, request_driver = attach_workload(cluster, spec)
        mobility, injector = attach_dynamics(cluster, spec)
        cluster.start()
        runtime = SimRuntime(
            spec=spec,
            cluster=cluster,
            production=production,
            requests=request_driver,
            mobility=mobility,
            churn=injector,
        )
    # The process-global tracer follows the newest engine's clock so
    # spans carry simulated time too; the timeline probe, if armed,
    # follows the newest cluster.
    _obs.attach_runtime(runtime, runtime.engine.clock_reader())
    return runtime


def attach_workload(
    cluster: EdgeCluster, spec: ExperimentSpec
) -> Tuple[_ProductionDriver, _RequestDriver]:
    """Generate and schedule the Poisson production + request workload.

    The engine's stream sources both the production schedule and the
    per-item requester sampling.  Returns the two drivers so callers can
    hang them off their runtime.
    """
    engine = cluster.engine
    schedule = generate_production_schedule(
        node_count=spec.node_count,
        items_per_minute=spec.config.data_items_per_minute,
        duration_seconds=spec.duration_seconds,
        rng=engine.np_rng,
    )
    request_driver = _RequestDriver(cluster)
    production = _ProductionDriver(cluster, spec, request_driver)
    for event in schedule:
        engine.call_at(event.time, production.produce, event)
    return production, request_driver


def attach_dynamics(
    cluster: EdgeCluster, spec: ExperimentSpec
) -> Tuple[Optional[_MobilityDriver], Optional[ChurnInjector]]:
    """Start the mobility epochs and plan the churn windows ``spec`` asks
    for; the engine's stream picks the churned nodes."""
    duration = spec.duration_seconds
    mobility: Optional[_MobilityDriver] = None
    if spec.mobility_epoch_minutes > 0:
        mobility = _MobilityDriver(
            cluster, spec.mobility_epoch_minutes * 60.0, duration
        )
        mobility.start()
    injector: Optional[ChurnInjector] = None
    if spec.churn is not None:
        churned_count = int(round(spec.churn.node_fraction * spec.node_count))
        churned_nodes = cluster.engine.np_rng.choice(
            spec.node_count, size=churned_count, replace=False
        )
        injector = ChurnInjector(
            cluster.engine, cluster.network, on_up=_ReconnectHook(cluster)
        )
        injector.plan_random(
            node_ids=[int(n) for n in churned_nodes],
            horizon=duration * 0.9,
            mean_downtime=spec.churn.mean_downtime_seconds,
            events_per_node=spec.churn.events_per_node,
        )
    return mobility, injector


def collect_metrics(runtime: SimRuntime) -> RunMetrics:
    """Derive the figure-level metrics from a finished runtime."""
    cluster = runtime.cluster
    with _obs.span("run.collect", "run"):
        return collect_node_metrics(
            [cluster.nodes[node_id] for node_id in cluster.node_ids],
            runtime.spec.duration_seconds,
            cluster.network.trace,
        )


def collect_node_metrics(
    nodes: Sequence[EdgeNode], duration_seconds: float, trace: TransmissionTrace
) -> RunMetrics:
    """The figure-level metrics of ``nodes`` (in id order) on either fabric.

    The longest chain is the reference.  Interval metrics walk its
    retained suffix above the *policy* horizon — a pure function of
    config and height — not the node's actual prune floor, which a
    durability layer may hold back, so every run mode of the same seed
    reports identical intervals.
    """
    from repro.lifecycle.spec import retention_horizon

    reference = max(nodes, key=lambda node: node.chain.height)
    chain = reference.chain
    metric_floor = retention_horizon(chain.config, chain.height)
    return collect_run_metrics(
        node_count=len(nodes),
        node_ids=[node.node_id for node in nodes],
        duration_seconds=duration_seconds,
        trace=trace,
        storage_used=[node.storage.used_slots() for node in nodes],
        delivery_times=[t for node in nodes for t in node.delivery_times],
        failed_requests=sum(node.counters.data_requests_failed for node in nodes),
        block_timestamps=[
            block.timestamp for block in chain.blocks if block.index >= metric_floor
        ],
        blocks_mined={node.node_id: node.counters.blocks_mined for node in nodes},
        recovery_durations=[
            d for node in nodes for d in node.sync.completed_durations
        ],
        data_items_produced=sum(node.counters.data_produced for node in nodes),
        tip_height=chain.height,
    )


def grid_after(clock: float, step: float) -> float:
    """The first multiple of ``step`` (counted from clock 0) past ``clock``."""
    boundary = (math.floor(clock / step) + 1) * step
    # ``k * step / step`` can round below ``k``; never return ``clock`` itself.
    return boundary if boundary > clock else boundary + step


def advance(
    runtime: Any,
    stop_after_seconds: Optional[float] = None,
    segment_seconds: Optional[float] = None,
    after_segment: Optional[Callable[[], None]] = None,
) -> bool:
    """Advance a simulated runtime; True once it reached its duration.

    The target is the run's duration, or ``stop_after_seconds`` past the
    current clock when that comes first (a paused or resumed run).  With
    ``after_segment`` the engine runs in slices that end on the multiples
    of ``segment_seconds`` from clock 0 (and on the target), and calls it
    after each — the cadence of every durable run, so a run resumed off
    that grid gets back on it at its first segment end.
    """
    if after_segment is not None and not (
        segment_seconds is not None and segment_seconds > 0
    ):
        raise ValueError(
            "segment_seconds must be positive with after_segment, "
            f"got {segment_seconds}"
        )
    duration = runtime.spec.duration_seconds
    engine = runtime.engine
    target = (
        duration
        if stop_after_seconds is None
        else min(duration, engine.now + stop_after_seconds)
    )
    with _obs.span(
        "run.simulate", "run", duration_seconds=duration, target_seconds=target
    ):
        if after_segment is None:
            engine.run_until(target)
        else:
            while engine.now < target:
                engine.run_until(min(grid_after(engine.now, segment_seconds), target))
                after_segment()
    return engine.now >= duration


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build, load, run, and measure one experiment."""
    runtime = build_runtime(spec)
    advance(runtime)
    metrics = collect_metrics(runtime)
    return ExperimentResult(spec=spec, metrics=metrics, cluster=runtime.cluster)
