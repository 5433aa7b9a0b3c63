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

1. Both fabrics build one deployment with the same code: the world
   (positions, mobility ranges, accounts and the shared tables) comes
   from :func:`repro.sim.cluster.build_world`, every node from
   :meth:`~repro.sim.cluster.World.node`, and requests and metrics go
   through :func:`repro.sim.runner.fire_request` and
   :func:`~repro.sim.runner.collect_node_metrics`.  :func:`build_workload`
   then draws the production schedule and one request plan per event in
   time order, as ``repro.sim.runner.build_runtime`` does, so every
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

Hosting and agreement
---------------------

:class:`LiveClusterHarness` hosts all N nodes on one event loop, or a
subset: ``repro live run --procs`` runs one per ``repro live node`` child
on ``base_port + id``, logical t=0 anchored to a shared ``start_at``.
Either way a run is start → arm → wait → drain → collect → shutdown,
judged by :func:`chain_agreement`, which the ``--procs`` parent also
applies to the chains its children report.

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
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.allocation import AllocationEngine
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.messages import CATEGORY_CHAIN_SYNC, ChainRequest
from repro.core.metadata import data_id_for
from repro.core.node import EdgeNode
from repro.metrics.collector import RunMetrics
from repro.net.clock import AsyncEngine
from repro.net.peer import PeerConfig, PeerManager
from repro.net.router import SocketNetwork
from repro.obs import runtime as _obs
from repro.sim.cluster import World, build_world
from repro.sim.runner import (
    ExperimentSpec,
    collect_node_metrics,
    fire_request,
    run_experiment,
)
from repro.simnet.channel import ChannelModel
from repro.simnet.trace import TransmissionTrace
from repro.workloads.generator import ProductionEvent, generate_production_schedule
from repro.workloads.requests import RequestPlan, plan_requests

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
    #: nodes), as ``ExperimentSpec.node_classes``.
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

    world: World
    genesis_digest: str
    events: List[ProductionEvent]
    plans: List[RequestPlan]
    #: The data id each event will produce: ``H("data", address,
    #: sequence)`` follows from the producer's account and how many
    #: earlier events the schedule assigns to the same producer.
    data_ids: List[str]


def build_workload(spec: LiveSpec) -> LiveWorkload:
    """Precompute the seeded world and workload for a live run.

    Request plans can be precomputed because nothing else draws from the
    stream between production events in a parity-eligible run (PoS +
    greedy placement + zero loss).
    """
    config = spec.config
    rng = np.random.default_rng(spec.seed)
    world = build_world(spec.node_count, config, spec.seed, rng)
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
    sequences: Dict[int, int] = {}
    data_ids = []
    for event in events:
        sequence = sequences.get(event.producer, 0)
        sequences[event.producer] = sequence + 1
        data_ids.append(data_id_for(world.accounts[event.producer], sequence))
    genesis = Blockchain(world.node_ids, config, world.address_of).block_at(0)
    return LiveWorkload(
        world=world,
        genesis_digest=genesis.current_hash,
        events=events,
        plans=plans,
        data_ids=data_ids,
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
            topology=workload.world.topology,
            channel=ChannelModel(
                hop_delay=spec.config.hop_delay, bandwidth=spec.config.bandwidth
            ),
            trace=trace,
        )
        self.node = workload.world.node(
            node_id,
            spec.config,
            self.network,
            self.engine,
            AllocationEngine(spec.config, rng=self.engine.np_rng),
            node_class=(spec.node_classes or {}).get(node_id, EdgeNode),
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
        rejoins mid-run, and its producer sequence resumes past its
        skipped productions, so it mints the planned data ids; the halt
        timer stops the engine at ``duration``, as the simulator's
        ``run_until`` does, so no block is mined past the window.
        """
        self.node.start()
        workload = self.workload
        self.node._produce_sequence = sum(
            event.producer == self.node_id and event.time < after
            for event in workload.events
        )
        for event, plan, data_id in zip(
            workload.events, workload.plans, workload.data_ids
        ):
            if event.producer == self.node_id and event.time >= after:
                self.engine.call_at(event.time, self._produce, event, data_id)
            for requester, when in zip(plan.requesters, plan.times):
                if requester == self.node_id and when >= after:
                    self.engine.call_at(when, fire_request, self.node, data_id)
        self.engine.call_at(duration, self.engine.stop)

    def _produce(self, event: ProductionEvent, data_id: str) -> None:
        metadata = self.node.produce_data(
            data_type=event.data_type,
            location=event.location,
            properties=event.properties,
        )
        if metadata.data_id != data_id:
            self.workload_mismatches += 1

    # -- lifecycle ------------------------------------------------------------------

    async def join_mesh(self, ports: Dict[int, int]) -> None:
        """Dial every higher peer (the lower ones dial this node), then
        wait until every peer is connected."""
        spec = self.spec
        for high in range(self.node_id + 1, spec.node_count):
            self.peers.dial(high, spec.host, ports[high])
        await self.peers.wait_connected(
            [p for p in range(spec.node_count) if p != self.node_id],
            timeout=30.0,  # peers in other processes may boot late
        )

    async def stop(self) -> None:
        self.engine.stop()
        await self.peers.close()


@dataclass(frozen=True)
class ChainView:
    """One node's chain as the agreement rule reads it."""

    height: int
    #: Hashes of the retained blocks, oldest first; the last is the tip.
    hashes: Tuple[str, ...]

    @classmethod
    def of(cls, chain: Blockchain) -> "ChainView":
        return cls(chain.height, tuple(block.current_hash for block in chain.blocks))

    def hash_at(self, height: int) -> Optional[str]:
        """The hash at ``height``, or None when not retained (or above)."""
        position = len(self.hashes) - 1 - (self.height - height)
        return self.hashes[position] if 0 <= position < len(self.hashes) else None


@dataclass(frozen=True)
class Agreement:
    """What a live cluster's final chains establish together.

    Strict digest equality is the wrong bar at the end of a run window: a
    block mined just before the cutoff legally reaches only part of the
    network (the simulator's ``run_until`` drops those deliveries too).
    What must hold is agreement: every chain is a prefix of the longest,
    nobody trails by more than one block, and the deterministic workload
    never diverged.
    """

    #: Every chain is a prefix of the longest (no fork survived the run).
    prefix_consistent: bool
    #: Largest number of blocks any chain trails the longest by.
    max_lag: int
    #: Productions whose data id diverged from the precomputed one.
    workload_mismatches: int

    @property
    def healthy(self) -> bool:
        return (
            self.prefix_consistent
            and self.max_lag <= 1
            and not self.workload_mismatches
        )


def chain_agreement(
    chains: Iterable[ChainView], workload_mismatches: int = 0
) -> Agreement:
    """Judge a cluster's chains, however its nodes were hosted.

    The longest chain (the first, on a tie) is the reference; a chain
    whose tip is not the reference's block at that height, or whose
    height the reference no longer retains, is not a prefix.
    """
    views = list(chains)
    longest = max(views, key=lambda view: view.height)
    return Agreement(
        prefix_consistent=all(
            longest.hash_at(view.height) == view.hashes[-1] for view in views
        ),
        max_lag=longest.height - min(view.height for view in views),
        workload_mismatches=workload_mismatches,
    )


@dataclass
class LiveRunResult:
    """What a finished live run established (over the hosted nodes)."""

    spec: LiveSpec
    chain_digest: str
    chain_height: int
    chains: Dict[int, ChainView]
    metrics: RunMetrics
    net: Dict[str, object]
    reconnects: int
    agreement: Agreement
    #: Nodes that were killed and restarted during the run.
    restarted: Tuple[int, ...] = ()
    #: Set when a kill was injected: did the restarted node catch back up
    #: to within one block of the reference chain?
    resynced: Optional[bool] = None

    @property
    def prefix_consistent(self) -> bool:
        return self.agreement.prefix_consistent

    @property
    def max_lag(self) -> int:
        return self.agreement.max_lag

    @property
    def workload_mismatches(self) -> int:
        return self.agreement.workload_mismatches

    @property
    def digests_agree(self) -> bool:
        """Every node ended on the identical chain."""
        return len({view.hashes[-1] for view in self.chains.values()}) == 1

    @property
    def healthy(self) -> bool:
        """The run's pass criterion: agreement, and a killed node resynced."""
        return self.agreement.healthy and self.resynced is not False

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
    """Hosts the ``hosted`` nodes of a live cluster (default: all) on one
    event loop; the others listen elsewhere on ``base_port + id``.
    ``start_at`` (epoch seconds) anchors logical t=0, else mesh-up does."""

    def __init__(
        self,
        spec: LiveSpec,
        hosted: Optional[Iterable[int]] = None,
        start_at: Optional[float] = None,
    ):
        self.hosted = tuple(range(spec.node_count) if hosted is None else hosted)
        if not self.hosted or not set(self.hosted) <= set(range(spec.node_count)):
            raise ValueError("hosted nodes must be a non-empty set of node ids")
        if len(self.hosted) < spec.node_count and not spec.base_port:
            raise ValueError("a partly hosted cluster needs a fixed base port")
        self.spec = spec
        self.start_at = start_at
        self.workload = build_workload(spec)
        self.trace = TransmissionTrace()
        self.nodes: Dict[int, LiveNode] = {}
        #: Every node's listening port: fixed by the base port, or learned
        #: as the hosted nodes bind ephemeral ones.
        self._ports: Dict[int, int] = (
            {node_id: spec.base_port + node_id for node_id in range(spec.node_count)}
            if spec.base_port
            else {}
        )
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
    def engine(self) -> "LiveClusterHarness":
        """The probe reads ``engine.queue_depth``; the harness answers it."""
        return self

    @property
    def queue_depth(self) -> int:
        return sum(live.engine.queue_depth for live in self.nodes.values())

    def logical_now(self) -> float:
        return max(
            (live.engine.wall_elapsed_logical() for live in self.nodes.values()),
            default=0.0,
        )

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the hosted listeners, join the mesh, then release the workload."""
        spec = self.spec
        for node_id in self.hosted:
            await self._bind(node_id)
        await asyncio.gather(
            *(live.join_mesh(self._ports) for live in self.nodes.values())
        )
        _obs.attach_runtime(self, self.logical_now)
        if self.start_at is not None and time.time() > self.start_at:
            # Rebasing to a past instant would replay the elapsed schedule
            # at once: refuse instead of producing a garbage run.
            raise SystemExit(
                f"nodes {list(self.hosted)} became ready "
                f"{time.time() - self.start_at:.1f}s after the start barrier; "
                "increase the start lead"
            )
        # Logical t=0 is the shared instant, or "mesh up": rebase every
        # clock at (as close as the loop allows to) the same instant, then
        # arm mining + workload.
        for live in self.nodes.values():
            live.engine.rebase(0.0, wall_at=self.start_at)
        for live in self.nodes.values():
            live.arm(spec.duration_seconds)

    async def _bind(self, node_id: int, start_logical: float = 0.0) -> LiveNode:
        """Build node ``node_id`` and bind its listener (on its old port)."""
        live = LiveNode(
            self.spec,
            self.workload,
            node_id,
            port=self._ports.get(node_id, 0),
            start_logical=start_logical,
            trace=self.trace,
        )
        self.nodes[node_id] = live
        self._ports[node_id] = await live.peers.start()
        return live

    async def shutdown(self) -> None:
        for live in self.nodes.values():
            await live.stop()

    # -- fault injection ------------------------------------------------------------

    async def restart(self, node_id: int) -> LiveNode:
        """Bring a *fresh* node (empty chain, same identity/port) back.

        Equivalent to a process restart: the replacement re-derives the
        deterministic world, rebinds the old port, re-dials its higher
        peers (lower peers' dial loops are already retrying), and syncs
        the missed chain through gap recovery.
        """
        replacement = await self._bind(node_id, start_logical=self.logical_now())
        self._restarted.append(node_id)
        await replacement.join_mesh(self._ports)
        replacement.engine.rebase()
        # Future workload only; the chain itself arrives via sync.
        replacement.arm(self.spec.duration_seconds, after=replacement.engine.now)
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
        fault: Optional[asyncio.Task] = None
        try:
            await self.start()
            if spec.kill is not None:
                fault = asyncio.ensure_future(self._inject_kill(spec.kill))
            while (remaining := spec.duration_seconds - self.logical_now()) > 0:
                await asyncio.sleep(max(0.01, min(0.1, remaining * spec.time_scale)))
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
        # Hard stop: engine dead, sockets closed, port kept.
        await self.nodes[kill.node_id].stop()
        await asyncio.sleep(kill.down_minutes * 60.0 * scale)
        await self.restart(kill.node_id)

    # -- collection -----------------------------------------------------------------

    def collect(self) -> LiveRunResult:
        """Figure-level metrics (the simulator's collector) plus what only
        a live cluster has: per-node chains, agreement, reconnects and net
        counters."""
        reference = self.longest_chain_node().chain
        lives = [self.nodes[node_id] for node_id in sorted(self.nodes)]
        chains = {live.node_id: ChainView.of(live.node.chain) for live in lives}
        resynced = (
            all(chains[n].height >= reference.height - 1 for n in self._restarted)
            if self._restarted
            else None
        )
        return LiveRunResult(
            spec=self.spec,
            chain_digest=reference.chain_digest(),
            chain_height=reference.height,
            chains=chains,
            metrics=collect_node_metrics(
                [live.node for live in lives], self.spec.duration_seconds, self.trace
            ),
            net={
                **self.trace.snapshot(),
                "messages_sent": sum(live.network.messages_sent for live in lives),
                "messages_dropped": sum(
                    live.network.messages_dropped for live in lives
                ),
            },
            reconnects=sum(live.peers.reconnects for live in lives),
            agreement=chain_agreement(
                chains.values(),
                sum(live.workload_mismatches for live in lives),
            ),
            restarted=tuple(self._restarted),
            resynced=resynced,
        )


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
        "live_digests_agree": live.digests_agree,
        "workload_mismatches": live.workload_mismatches,
    }
