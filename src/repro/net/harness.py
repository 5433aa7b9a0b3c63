"""Live cluster harness: N real nodes on localhost, one seeded workload.

Runs the **unmodified** :class:`~repro.core.node.EdgeNode` protocol over
real TCP sockets — each node gets its own :class:`~repro.net.clock.
AsyncEngine`, :class:`~repro.net.peer.PeerManager`, and
:class:`~repro.net.router.SocketNetwork` — while driving the exact same
seeded workload as the simulator.

The parity oracle
-----------------

For a seeded, churn-free, mobility-free PoS run, a live cluster and the
simulator must converge to the **identical** ``chain_digest``.  Three
properties make that hold:

1. :func:`build_workload` consumes the seed's RNG stream in precisely
   the order ``repro.sim.cluster.build_cluster`` + ``repro.sim.runner.
   build_runtime`` do — positions, mobility ranges, production schedule,
   then one request plan per production event in time order — so every
   derived value (topology, accounts, data ids, request times) matches.
2. The :class:`AsyncEngine` logical clock: timers observe their exact
   scheduled logical time, so block timestamps and metadata creation
   times are bit-identical to the simulator's.
3. With PoS consensus and the greedy solver, no protocol code draws
   randomness at run time — mining delays are deterministic functions of
   chain state, so both runtimes elect the same miner for every height.

Socket latency only shifts *wall* delivery order; as long as it stays
far below the scaled block interval (the default ``time_scale`` keeps a
60 s interval at 1.2 s wall against sub-millisecond loopback RTTs), the
causal order of chain events matches the simulator's and the digests
agree.  :func:`parity_report` runs both sides and diffs them.

Fault injection
---------------

:class:`LiveSpec.kill` schedules a mid-run kill + restart of one node:
its engine stops, its sockets close, and after the downtime a **fresh**
process-restart-equivalent node (empty chain, same identity and port)
rejoins, reconnects via the peers' dial loops, and resyncs the chain
through the normal gap-recovery path.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.account import Account
from repro.core.allocation import AllocationEngine
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.messages import CATEGORY_CHAIN_SYNC, ChainRequest
from repro.core.metadata import data_id_for
from repro.core.node import EdgeNode
from repro.metrics.collector import RunMetrics, collect_run_metrics
from repro.net.clock import AsyncEngine
from repro.net.peer import PeerConfig, PeerManager
from repro.net.router import SocketNetwork
from repro.obs import runtime as _obs
from repro.simnet.channel import ChannelModel
from repro.simnet.mobility import RangeBoundedMobility
from repro.simnet.topology import Topology, connected_random_positions
from repro.simnet.trace import TransmissionTrace
from repro.workloads.generator import ProductionEvent, generate_production_schedule
from repro.workloads.requests import RequestPlan, plan_requests

#: Mirror of the simulator runner's request-retry policy.
_REQUEST_RETRY_SECONDS = 60.0
_REQUEST_MAX_RETRIES = 5

#: Wall seconds granted after the logical run ends for in-flight frames
#: to drain before metrics are collected.
_DRAIN_SECONDS = 0.25


@dataclass(frozen=True)
class KillSpec:
    """Kill one node mid-run and bring a fresh instance back later."""

    node_id: int
    at_minutes: float
    down_minutes: float

    def __post_init__(self) -> None:
        if self.at_minutes <= 0 or self.down_minutes <= 0:
            raise ValueError("kill/restart times must be positive")


@dataclass(frozen=True)
class LiveSpec:
    """Everything that defines one live run (cf. ``ExperimentSpec``)."""

    node_count: int
    config: SystemConfig
    seed: int = 0
    duration_minutes: float = 10.0
    #: Wall seconds per logical second: 0.02 runs a 60 s block interval
    #: in 1.2 s of wall time while keeping loopback RTTs negligible.
    time_scale: float = 0.02
    host: str = "127.0.0.1"
    #: 0 → ephemeral ports (in-process clusters); a fixed base is needed
    #: for multi-process clusters and for restarting a killed node on
    #: its old address.
    base_port: int = 0
    kill: Optional[KillSpec] = None
    peer_config: Optional[PeerConfig] = None
    #: Per-node EdgeNode subclass overrides (adversaries, instrumented
    #: nodes) — the live mirror of ``ExperimentSpec.node_classes``.
    node_classes: Optional[Dict[int, type]] = None

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("a blockchain network needs at least 2 nodes")
        if self.duration_minutes <= 0:
            raise ValueError("duration must be positive")
        if self.time_scale <= 0:
            raise ValueError("time scale must be positive")
        if self.kill is not None and not (
            0 <= self.kill.node_id < self.node_count
        ):
            raise ValueError("kill target out of range")
        for node_id in self.node_classes or {}:
            if not 0 <= node_id < self.node_count:
                raise ValueError(f"node class override for unknown node {node_id}")

    @property
    def duration_seconds(self) -> float:
        return self.duration_minutes * 60.0


@dataclass
class LiveWorkload:
    """The deterministic world + workload shared by every live node.

    Derived purely from ``(node_count, config, seed, duration)``, so any
    process can rebuild it independently — which is what lets
    multi-process clusters agree on identities, topology, and schedule
    without any coordination traffic.
    """

    topology: Topology
    #: The cluster's tables, held (not copied) by every node's chain.
    node_ids: Tuple[int, ...]
    mobility_ranges: List[float]
    accounts: Dict[int, Account]
    address_of: Dict[int, str]
    genesis_digest: str
    events: List[ProductionEvent]
    plans: List[RequestPlan]


def build_workload(spec: LiveSpec) -> LiveWorkload:
    """Precompute the seeded world and workload for a live run.

    Consumes the RNG stream in exactly the simulator's order (positions →
    mobility ranges → production schedule → request plans per event) so a
    parity run sees identical draws.  Request plans can be precomputed
    because nothing else draws from the stream between production events
    in a parity-eligible run (PoS + greedy placement + zero loss).
    """
    config = spec.config
    rng = np.random.default_rng(spec.seed)
    positions = connected_random_positions(
        spec.node_count,
        rng,
        field_size=config.field_size,
        comm_range=config.comm_range,
    )
    topology = Topology(positions, comm_range=config.comm_range)
    mobility = RangeBoundedMobility.uniform(
        positions,
        rng,
        wander_range=config.mobility_range,
        field_size=config.field_size,
    )
    accounts = {
        node_id: Account.for_node(spec.seed, node_id)
        for node_id in range(spec.node_count)
    }
    node_ids = tuple(range(spec.node_count))
    address_of = {node_id: account.address for node_id, account in accounts.items()}
    genesis_digest = (
        Blockchain(node_ids, config, address_of)
        .block_at(0)
        .current_hash
    )
    events = generate_production_schedule(
        node_count=spec.node_count,
        items_per_minute=config.data_items_per_minute,
        duration_seconds=spec.duration_seconds,
        rng=rng,
    )
    plans = [
        plan_requests(
            node_count=spec.node_count,
            producer=event.producer,
            production_time=event.time,
            requester_fraction=config.requester_fraction,
            rng=rng,
        )
        for event in events
    ]
    return LiveWorkload(
        topology=topology,
        node_ids=node_ids,
        mobility_ranges=[mobility.wander_range(node_id) for node_id in node_ids],
        accounts=accounts,
        address_of=address_of,
        genesis_digest=genesis_digest,
        events=events,
        plans=plans,
    )


class LiveNode:
    """One live protocol node: engine + peers + router + EdgeNode."""

    def __init__(
        self,
        spec: LiveSpec,
        workload: LiveWorkload,
        node_id: int,
        port: int = 0,
        start_logical: float = 0.0,
        trace: Optional[TransmissionTrace] = None,
    ):
        self.spec = spec
        self.workload = workload
        self.node_id = node_id
        self.engine = AsyncEngine(
            seed=spec.seed * 100003 + node_id,
            time_scale=spec.time_scale,
            start_logical=start_logical,
        )
        self.peers = PeerManager(
            node_id=node_id,
            genesis_digest=workload.genesis_digest,
            on_message=self._on_frame,
            config=spec.peer_config,
            host=spec.host,
            port=port,
            rng=self.engine.rng,
        )
        self.network = SocketNetwork(
            node_id,
            spec.node_count,
            self.peers,
            engine=self.engine,
            topology=workload.topology,
            channel=ChannelModel(
                hop_delay=spec.config.hop_delay, bandwidth=spec.config.bandwidth
            ),
            trace=trace,
        )
        allocator = AllocationEngine(spec.config, rng=self.engine.np_rng)
        node_cls = (spec.node_classes or {}).get(node_id, EdgeNode)
        self.node = node_cls(
            node_id=node_id,
            account=workload.accounts[node_id],
            config=spec.config,
            network=self.network,
            engine=self.engine,
            topology=workload.topology,
            allocator=allocator,
            node_ids=workload.node_ids,
            address_of=workload.address_of,
            mobility_ranges=workload.mobility_ranges,
        )
        #: Productions whose data id diverged from the precomputed one —
        #: always zero unless determinism broke.
        self.workload_mismatches = 0

    def _on_frame(self, peer_id: int, frame: Dict[str, object]) -> None:
        self.network.deliver_frame(peer_id, frame)

    # -- workload -------------------------------------------------------------------

    def arm(self, duration: float, after: float = 0.0) -> None:
        """Start mining and schedule this node's share of the workload.

        ``after`` skips already-elapsed events when a restarted node
        rejoins mid-run; the halt timer mirrors the simulator's
        ``run_until(duration)`` so no block is mined past the window.
        """
        self.node.start()
        for event, plan in zip(self.workload.events, self.workload.plans):
            if event.producer == self.node_id and event.time >= after:
                self.engine.call_at(event.time, self._produce, event)
            for requester, when in zip(plan.requesters, plan.times):
                if requester == self.node_id and when >= after:
                    data_id = _planned_data_id(self.workload, event)
                    self.engine.call_at(when, self._request, data_id, 0)
        self.engine.call_at(duration, self.engine.stop)

    def _produce(self, event: ProductionEvent) -> None:
        metadata = self.node.produce_data(
            data_type=event.data_type,
            location=event.location,
            properties=event.properties,
        )
        if metadata.data_id != _planned_data_id(self.workload, event):
            self.workload_mismatches += 1

    def _request(self, data_id: str, attempt: int) -> None:
        # Mirror of repro.sim.runner._RequestDriver._fire.
        if self.node.chain.metadata_of(data_id) is None:
            if attempt < _REQUEST_MAX_RETRIES:
                self.engine.schedule(
                    _REQUEST_RETRY_SECONDS, self._request, data_id, attempt + 1
                )
            else:
                self.node.counters.data_requests_failed += 1
            return
        self.node.request_data(data_id)

    # -- lifecycle ------------------------------------------------------------------

    async def start_listening(self) -> int:
        return await self.peers.start()

    async def stop(self) -> None:
        self.engine.stop()
        await self.peers.close()


def _planned_data_id(workload: LiveWorkload, event: ProductionEvent) -> str:
    """The data id ``event`` will produce, computed without running it.

    ``data_id = H("data", address, sequence)`` — independent of the
    production timestamp — so it follows from the producer's account and
    how many earlier events the schedule assigns to the same producer.
    """
    cache = getattr(workload, "_data_id_cache", None)
    if cache is None:
        cache = {}
        sequences: Dict[int, int] = {}
        for item in workload.events:
            sequence = sequences.get(item.producer, 0)
            sequences[item.producer] = sequence + 1
            cache[id(item)] = data_id_for(
                workload.accounts[item.producer], sequence
            )
        object.__setattr__(workload, "_data_id_cache", cache)
    return cache[id(event)]


def _metric_block_timestamps(chain) -> List[float]:
    """Retained-suffix timestamps above the *policy* retention horizon.

    The policy horizon is a pure function of config and height, so every
    run mode of the same seed reports identical interval metrics even
    when a durability layer held the actual prune floor back.
    """
    from repro.lifecycle.spec import retention_horizon

    metric_floor = retention_horizon(chain.config, chain.height)
    return [b.timestamp for b in chain.blocks if b.index >= metric_floor]


@dataclass
class LiveRunResult:
    """What a finished live run established."""

    spec: LiveSpec
    chain_digest: str
    chain_height: int
    digests: Dict[int, str]
    heights: Dict[int, int]
    metrics: RunMetrics
    net: Dict[str, object]
    reconnects: int
    workload_mismatches: int
    #: Nodes that were killed and restarted during the run.
    restarted: Tuple[int, ...] = ()
    #: Set when a kill was injected: did the restarted node catch back up
    #: to within one block of the reference chain?
    resynced: Optional[bool] = None

    #: Every node's chain is a prefix of the reference chain (no forks
    #: survived the run; nodes may trail by in-flight tail blocks).
    prefix_consistent: bool = True
    #: Largest number of blocks any node trails the reference chain by.
    max_lag: int = 0

    @property
    def digests_agree(self) -> bool:
        """Every node ended on the identical chain."""
        return len(set(self.digests.values())) == 1

    @property
    def healthy(self) -> bool:
        """The run's pass criterion.

        Strict digest equality is the wrong bar at the end of a run
        window: a block mined just before the cutoff legally reaches
        only part of the network (the simulator's ``run_until`` drops
        those deliveries too).  What must hold is *agreement*: every
        chain is a prefix of the reference, nobody trails by more than
        one block, and the deterministic workload never diverged.
        """
        if not self.prefix_consistent or self.workload_mismatches:
            return False
        if self.max_lag > 1:
            return False
        return self.resynced is None or self.resynced

    def summary(self) -> Dict[str, object]:
        return {
            "nodes": self.spec.node_count,
            "seed": self.spec.seed,
            "duration_minutes": self.spec.duration_minutes,
            "chain_height": self.chain_height,
            "chain_digest": self.chain_digest,
            "digests_agree": self.digests_agree,
            "prefix_consistent": self.prefix_consistent,
            "max_lag": self.max_lag,
            "healthy": self.healthy,
            "reconnects": self.reconnects,
            "workload_mismatches": self.workload_mismatches,
            "restarted": list(self.restarted),
            "resynced": self.resynced,
            "net": self.net,
        }


class LiveClusterHarness:
    """Hosts every node of a live cluster as tasks on one event loop."""

    def __init__(self, spec: LiveSpec):
        self.spec = spec
        self.workload = build_workload(spec)
        self.trace = TransmissionTrace()
        self.nodes: Dict[int, LiveNode] = {}
        self._ports: Dict[int, int] = {}
        self._restarted: List[int] = []

    # -- obs facade (duck-typed like EdgeCluster for the timeline probe) -----------

    @property
    def config(self) -> SystemConfig:
        return self.spec.config

    def longest_chain_node(self) -> EdgeNode:
        return max(
            (live.node for live in self.nodes.values()),
            key=lambda n: n.chain.height,
        )

    @property
    def engine(self) -> "_EngineView":
        return _EngineView(self)

    def logical_now(self) -> float:
        return max(
            (live.engine.wall_elapsed_logical() for live in self.nodes.values()),
            default=0.0,
        )

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind all listeners, build the mesh, then release the workload."""
        spec = self.spec
        for node_id in range(spec.node_count):
            port = spec.base_port + node_id if spec.base_port else 0
            self.nodes[node_id] = LiveNode(
                spec, self.workload, node_id, port=port, trace=self.trace
            )
        for node_id, live in self.nodes.items():
            self._ports[node_id] = await live.start_listening()
        # Deterministic mesh: the lower node id dials the higher.
        for low in range(spec.node_count):
            for high in range(low + 1, spec.node_count):
                self.nodes[low].peers.dial(high, spec.host, self._ports[high])
        await asyncio.gather(
            *(
                live.peers.wait_connected(
                    [p for p in range(spec.node_count) if p != node_id]
                )
                for node_id, live in self.nodes.items()
            )
        )
        if _obs.is_enabled():
            _obs.set_sim_clock(self.logical_now)
            _obs.attach_runtime(self)
        # Logical t=0 is "mesh up": rebase every clock at (as close as the
        # loop allows to) the same instant, then arm mining + workload.
        for live in self.nodes.values():
            live.engine.rebase(0.0)
        for live in self.nodes.values():
            live.arm(spec.duration_seconds)

    async def shutdown(self) -> None:
        for live in self.nodes.values():
            await live.stop()

    # -- fault injection ------------------------------------------------------------

    async def kill(self, node_id: int) -> None:
        """Hard-stop one node: engine dead, sockets closed, port kept."""
        await self.nodes[node_id].stop()

    async def restart(self, node_id: int) -> LiveNode:
        """Bring a *fresh* node (empty chain, same identity/port) back.

        Equivalent to a process restart: the replacement re-derives the
        deterministic world, rebinds the old port, re-dials its higher
        peers (lower peers' dial loops are already retrying), and syncs
        the missed chain through gap recovery.
        """
        spec = self.spec
        replacement = LiveNode(
            spec,
            self.workload,
            node_id,
            port=self._ports[node_id],
            start_logical=self.logical_now(),
            trace=self.trace,
        )
        self.nodes[node_id] = replacement
        self._restarted.append(node_id)
        await replacement.start_listening()
        for high in range(node_id + 1, spec.node_count):
            replacement.peers.dial(high, spec.host, self._ports[high])
        peers = [p for p in range(spec.node_count) if p != node_id]
        await replacement.peers.wait_connected(peers, timeout=30.0)
        replacement.engine.rebase()
        # Future workload only; the chain itself arrives via sync.
        replacement.arm(spec.duration_seconds, after=replacement.engine.now)
        # Kick-start resync: ask every peer for its chain instead of
        # waiting to notice a gap from the next block announcement.
        request = ChainRequest(origin=node_id)
        replacement.network.broadcast(
            node_id, request, request.wire_size(), CATEGORY_CHAIN_SYNC
        )
        return replacement

    # -- run ------------------------------------------------------------------------

    async def run(self) -> LiveRunResult:
        """Start, drive the full workload (and any kill), collect, stop."""
        spec = self.spec
        await self.start()
        fault: Optional[asyncio.Task] = None
        if spec.kill is not None:
            fault = asyncio.ensure_future(self._inject_kill(spec.kill))
        try:
            wall_budget = spec.duration_seconds * spec.time_scale
            deadline = asyncio.get_running_loop().time() + wall_budget
            while self.logical_now() < spec.duration_seconds:
                remaining = deadline - asyncio.get_running_loop().time()
                await asyncio.sleep(max(0.01, min(0.1, remaining)))
            if fault is not None:
                await fault
                fault = None
            await asyncio.sleep(_DRAIN_SECONDS)
            return self.collect()
        finally:
            if fault is not None:
                fault.cancel()
            await self.shutdown()

    async def _inject_kill(self, kill: KillSpec) -> None:
        scale = self.spec.time_scale
        await asyncio.sleep(kill.at_minutes * 60.0 * scale)
        await self.kill(kill.node_id)
        await asyncio.sleep(kill.down_minutes * 60.0 * scale)
        await self.restart(kill.node_id)

    # -- collection -----------------------------------------------------------------

    def collect(self) -> LiveRunResult:
        """Figure-level metrics from the cluster, mirroring the sim path."""
        reference = self.longest_chain_node()
        delivery_times: List[float] = []
        recovery_durations: List[float] = []
        blocks_mined: Dict[int, int] = {}
        failed = produced = reconnects = mismatches = 0
        storage_used = []
        digests: Dict[int, str] = {}
        heights: Dict[int, int] = {}
        for node_id in sorted(self.nodes):
            live = self.nodes[node_id]
            node = live.node
            delivery_times.extend(node.delivery_times)
            recovery_durations.extend(node.sync.completed_durations)
            blocks_mined[node_id] = node.counters.blocks_mined
            failed += node.counters.data_requests_failed
            produced += node.counters.data_produced
            storage_used.append(node.storage.used_slots())
            reconnects += live.peers.reconnects
            mismatches += live.workload_mismatches
            digests[node_id] = node.chain.chain_digest()
            heights[node_id] = node.chain.height
        prefix_consistent = all(
            live.node.chain.tip.current_hash
            == reference.chain.block_at(live.node.chain.height).current_hash
            for live in self.nodes.values()
        )
        max_lag = reference.chain.height - min(heights.values())
        metrics = collect_run_metrics(
            node_count=self.spec.node_count,
            duration_seconds=self.spec.duration_seconds,
            trace=self.trace,
            storage_used=storage_used,
            delivery_times=delivery_times,
            failed_requests=failed,
            block_timestamps=_metric_block_timestamps(reference.chain),
            blocks_mined=blocks_mined,
            recovery_durations=recovery_durations,
            data_items_produced=produced,
            tip_height=reference.chain.height,
        )
        messages_sent = sum(
            live.network.messages_sent for live in self.nodes.values()
        )
        messages_dropped = sum(
            live.network.messages_dropped for live in self.nodes.values()
        )
        resynced: Optional[bool] = None
        if self._restarted:
            resynced = all(
                self.nodes[node_id].node.chain.height
                >= reference.chain.height - 1
                for node_id in self._restarted
            )
        return LiveRunResult(
            spec=self.spec,
            chain_digest=reference.chain.chain_digest(),
            chain_height=reference.chain.height,
            digests=digests,
            heights=heights,
            metrics=metrics,
            net={
                **self.trace.snapshot(),
                "messages_sent": messages_sent,
                "messages_dropped": messages_dropped,
            },
            reconnects=reconnects,
            workload_mismatches=mismatches,
            restarted=tuple(self._restarted),
            resynced=resynced,
            prefix_consistent=prefix_consistent,
            max_lag=max_lag,
        )


class _EngineView:
    """Engine facade for the timeline probe (aggregate queue depth)."""

    def __init__(self, harness: LiveClusterHarness):
        self._harness = harness

    @property
    def queue_depth(self) -> int:
        return sum(
            live.engine.queue_depth for live in self._harness.nodes.values()
        )

    @property
    def now(self) -> float:
        return self._harness.logical_now()


class SingleNodeView:
    """Obs facade over one hosted node (multi-process mode).

    Duck-types the cluster surface the timeline probe reads —
    ``config`` / ``longest_chain_node()`` / ``engine`` / ``nodes`` — so a
    child process in a ``--procs`` cluster can run the same timeline
    sampler and monitors as the in-process harness, scoped to its own
    node (its local chain view *is* its best chain knowledge).
    """

    def __init__(self, live: "LiveNode"):
        self._live = live
        self.nodes = {live.node_id: live}

    @property
    def config(self) -> SystemConfig:
        return self._live.spec.config

    def longest_chain_node(self) -> EdgeNode:
        return self._live.node

    @property
    def engine(self) -> Any:
        return self._live.engine


def run_live_experiment(spec: LiveSpec) -> LiveRunResult:
    """Synchronous front door: host the whole cluster and run it."""
    harness = LiveClusterHarness(spec)

    async def _main() -> LiveRunResult:
        with _obs.span(
            "live.run", "net", nodes=spec.node_count, seed=spec.seed
        ):
            return await harness.run()

    return asyncio.run(_main())


def parity_report(spec: LiveSpec) -> Dict[str, object]:
    """Run the same seeded workload on simnet and live; diff the chains.

    Parity preconditions (enforced here): PoS consensus, no mobility
    epochs, no churn, zero channel loss — under which neither runtime
    draws run-time randomness and both clocks observe identical logical
    event times.
    """
    from repro.sim.runner import ExperimentSpec, run_experiment

    if spec.kill is not None:
        raise ValueError("parity runs cannot inject faults")
    config = replace(spec.config, consensus="pos")
    sim_spec = ExperimentSpec(
        node_count=spec.node_count,
        config=config,
        seed=spec.seed,
        duration_minutes=spec.duration_minutes,
        mobility_epoch_minutes=0.0,
    )
    sim = run_experiment(sim_spec)
    sim_chain = sim.cluster.longest_chain_node().chain
    live = run_live_experiment(replace(spec, config=config))
    return {
        "seed": spec.seed,
        "nodes": spec.node_count,
        "duration_minutes": spec.duration_minutes,
        "sim_digest": sim_chain.chain_digest(),
        "live_digest": live.chain_digest,
        "sim_height": sim_chain.height,
        "live_height": live.chain_height,
        "match": sim_chain.chain_digest() == live.chain_digest
        and sim_chain.height == live.chain_height,
        "live_digests_agree": len(set(live.digests.values())) == 1,
        "workload_mismatches": live.workload_mismatches,
    }


# -- multi-process mode ---------------------------------------------------------


async def host_single_node(
    spec: LiveSpec, node_id: int, start_at: float
) -> Dict[str, object]:
    """Child-process entry: host exactly one node of a fixed-port cluster.

    Every process independently rebuilds the deterministic workload from
    the spec, binds ``base_port + node_id``, dials its higher peers, and
    anchors logical t=0 to the shared ``start_at`` epoch instant so the
    cluster's clocks agree across process boundaries.
    """
    if not spec.base_port:
        raise ValueError("multi-process clusters need a fixed --base-port")
    workload = build_workload(spec)
    live = LiveNode(spec, workload, node_id, port=spec.base_port + node_id)
    await live.start_listening()
    for high in range(node_id + 1, spec.node_count):
        live.peers.dial(high, spec.host, spec.base_port + high)
    await live.peers.wait_connected(
        [p for p in range(spec.node_count) if p != node_id], timeout=30.0
    )
    if _obs.is_enabled():
        _obs.set_sim_clock(live.engine.wall_elapsed_logical)
        _obs.attach_runtime(SingleNodeView(live))
    if time.time() > start_at:
        # Rebasing to a past instant would replay the whole schedule
        # instantly — refuse instead of producing a garbage run.
        raise SystemExit(
            f"node {node_id} became ready {time.time() - start_at:.1f}s after "
            "the start barrier; increase the start lead"
        )
    live.engine.rebase(0.0, wall_at=start_at)
    live.arm(spec.duration_seconds)
    wall_end = start_at + spec.duration_seconds * spec.time_scale
    while time.time() < wall_end:
        await asyncio.sleep(0.05)
    await asyncio.sleep(_DRAIN_SECONDS)
    node = live.node
    result = {
        "node": node_id,
        "chain_digest": node.chain.chain_digest(),
        "chain_height": node.chain.height,
        "blocks_mined": node.counters.blocks_mined,
        "data_produced": node.counters.data_produced,
        "requests_failed": node.counters.data_requests_failed,
        "reconnects": live.peers.reconnects,
        "frames_sent": live.peers.frames_sent,
        "frames_received": live.peers.frames_received,
        "workload_mismatches": live.workload_mismatches,
    }
    await live.stop()
    return result
