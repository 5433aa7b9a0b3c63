"""Federated runtime: K cluster domains on one engine, bridged by fog.

Composition, not reimplementation: every cluster domain is the existing
single-cluster machinery — SWIM formation (:mod:`repro.membership`), a
Raft general-information group (:mod:`repro.raft`), the PoS chain + UFL
allocation cluster (:mod:`repro.sim.cluster`), and the Poisson workload
(:func:`repro.sim.runner.attach_workload`) — instantiated K times on one
shared :class:`EventEngine`.  Isolation comes from two mechanisms:

* **one network plane per protocol per cluster** — ``Network.register``
  allows one handler per node id, and cluster-local ids are reused
  across clusters, so each domain gets its own data / SWIM / Raft
  :class:`Network` over its own topology.  Cross-cluster traffic only
  flows through the fog tier (:mod:`repro.federation.fog`).
* **derived per-cluster random streams** — layout, mobility, allocation,
  membership, and workload randomness all come from generators seeded by
  ``derived_seed(root, label, k)``, so no cluster's draws can perturb a
  sibling's through the engine's shared stream.

The run has two phases: SWIM-only formation until
``membership_window_seconds``, then a :class:`_FormationGate` event
verifies each cluster's membership view converged, stops SWIM, and arms
chains, Raft, the fog directory, and (implicitly, by schedule offset)
the workload.  The runtime is a pure function of its spec, so a durable
federation is resumed by rebuilding and replaying it
(:mod:`repro.federation.runner`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.metadata import data_id_for
from repro.federation.fog import CrossLookupDriver, FogTier
from repro.federation.spec import (
    FED_RAFT_ELECTION_TIMEOUT,
    FED_RAFT_HEARTBEAT_SECONDS,
    FederationSpec,
    derived_seed,
)
from repro.membership.cluster import SwimCluster
from repro.membership.messages import MemberStatus
from repro.obs import runtime as _obs
from repro.raft.cluster import RaftCluster
from repro.sim.cluster import EdgeCluster, build_cluster
from repro.sim.runner import SimRuntime, attach_dynamics, attach_workload
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.transport import Network


@dataclass
class ClusterDomain:
    """One edge cluster with all three of its protocol planes."""

    cluster_id: int
    seed: int
    cluster: EdgeCluster
    #: Per-cluster :class:`SimRuntime` facade — lets the single-cluster
    #: metrics collector run unchanged against this domain.
    runtime: SimRuntime
    swim: SwimCluster
    swim_network: Network
    raft: Optional[RaftCluster] = None
    raft_network: Optional[Network] = None
    #: Set by the formation gate when the membership window closes.
    formation_converged: Optional[bool] = None
    formation_time: Optional[float] = None

    def membership_converged(self) -> bool:
        """True when every member sees every member ALIVE."""
        return all(
            status is MemberStatus.ALIVE
            for observer in self.swim.nodes
            for status in self.swim.view_of(observer).values()
        )


class _FormationGate:
    """Closes the membership window (a scheduled callback).

    At ``membership_window_seconds`` it records each domain's SWIM
    convergence, stops the failure detectors, and only then arms mining,
    Raft, and the fog directory — the paper's cluster-formation-then-
    operation split, K times over.
    """

    def __init__(self, runtime: "FederationRuntime"):
        self.runtime = runtime

    def fire(self) -> None:
        now = self.runtime.engine.now
        for domain in self.runtime.domains:
            domain.formation_converged = domain.membership_converged()
            domain.formation_time = now
            domain.swim.stop()
            domain.cluster.start()
            if domain.raft is not None:
                domain.raft.start()
        self.runtime.fog.start()


@dataclass
class FederationRuntime:
    """The whole federation, ready to run."""

    spec: FederationSpec
    engine: EventEngine
    domains: List[ClusterDomain]
    fog: FogTier
    lookups: CrossLookupDriver

    @property
    def clusters(self) -> List[EdgeCluster]:
        return [domain.cluster for domain in self.domains]

    @property
    def finished(self) -> bool:
        return self.engine.now >= self.spec.duration_seconds

    def cluster_digests(self) -> List[str]:
        """Per-cluster reference chain digests, in cluster order."""
        return [
            domain.cluster.longest_chain_node().chain.chain_digest()
            for domain in self.domains
        ]

    def directory_digest(self) -> str:
        return self.fog.directory_digest()


def _plan_cross_lookups(
    runtime: FederationRuntime, rng: np.random.Generator
) -> None:
    """Schedule the cross-cluster lookup/migration workload.

    Data ids are precomputable (:func:`data_id_for` needs only the
    producer account and its sequence counter), so the planner walks each
    cluster's retained production schedule, samples which items attract a
    foreign lookup, and schedules the fog query from a random *other*
    cluster a directory-refresh-scale delay after production.
    """
    spec = runtime.spec
    if spec.cluster_count < 2 or spec.cross_lookup_fraction <= 0.0:
        return
    start_at = spec.membership_window_seconds
    for domain in runtime.domains:
        sequences: Dict[int, int] = {}
        for event in domain.runtime.production.schedule:
            sequence = sequences.get(event.producer, 0)
            sequences[event.producer] = sequence + 1
            if rng.random() >= spec.cross_lookup_fraction:
                continue
            data_id = data_id_for(
                domain.cluster.accounts[event.producer], sequence
            )
            origin = int(
                (domain.cluster_id + 1 + rng.integers(spec.cluster_count - 1))
                % spec.cluster_count
            )
            when = (
                start_at
                + event.time
                + float(rng.uniform(spec.lookup_min_delay, spec.lookup_max_delay))
            )
            if when >= spec.duration_seconds:
                continue
            migrate = bool(rng.random() < spec.migrate_fraction)
            runtime.lookups.schedule(origin, data_id, when, migrate)


def _build_domain(
    spec: FederationSpec, cluster_id: int, engine: EventEngine
) -> ClusterDomain:
    cluster_spec = spec.cluster_spec(cluster_id)
    layout_rng = np.random.default_rng(
        derived_seed(spec.seed, "layout", cluster_id)
    )
    cluster = build_cluster(
        cluster_spec.node_count,
        spec.config,
        seed=cluster_spec.seed,
        node_classes=cluster_spec.node_classes,
        engine=engine,
        rng=layout_rng,
    )
    config = spec.config

    # Membership plane: SWIM gets its own Network over the same topology
    # (one handler per node id per network), with an explicitly seeded
    # per-cluster protocol RNG — K clusters form deterministically from
    # the root seed no matter how their events interleave.
    swim_network = Network(
        engine,
        cluster.topology,
        ChannelModel(hop_delay=config.hop_delay, bandwidth=config.bandwidth),
    )
    swim = SwimCluster(
        cluster.node_ids,
        swim_network,
        engine,
        rng=random.Random(derived_seed(spec.seed, "swim", cluster_id)),
    )
    swim.start()

    # General-information plane: one Raft group per cluster, paced for
    # federation scale (K clusters share the engine's wall clock).
    raft: Optional[RaftCluster] = None
    raft_network: Optional[Network] = None
    if spec.with_raft:
        raft_network = Network(engine, cluster.topology, ChannelModel(bandwidth=None))
        raft = RaftCluster(
            cluster.node_ids,
            raft_network,
            engine,
            election_timeout=FED_RAFT_ELECTION_TIMEOUT,
            heartbeat_interval=FED_RAFT_HEARTBEAT_SECONDS,
        )

    # Workload: held back until the formation window closes, sourced from
    # a cluster-private generator.
    workload_rng = np.random.default_rng(
        derived_seed(spec.seed, "workload", cluster_id)
    )
    production, requests = attach_workload(
        cluster,
        cluster_spec,
        rng=workload_rng,
        start_at=spec.membership_window_seconds,
    )

    mobility, injector = attach_dynamics(
        cluster,
        cluster_spec,
        np.random.default_rng(derived_seed(spec.seed, "churn", cluster_id)),
    )

    runtime = SimRuntime(
        spec=cluster_spec,
        cluster=cluster,
        production=production,
        requests=requests,
        mobility=mobility,
        churn=injector,
    )
    return ClusterDomain(
        cluster_id=cluster_id,
        seed=cluster_spec.seed,
        cluster=cluster,
        runtime=runtime,
        swim=swim,
        swim_network=swim_network,
        raft=raft,
        raft_network=raft_network,
    )


def build_federation_runtime(spec: FederationSpec) -> FederationRuntime:
    """Wire K domains + fog tier, schedule everything, return the runtime.

    Mirrors :func:`repro.sim.runner.build_runtime`: the returned object
    is fully scheduled (formation gate, workload, lookups, directory) and
    advancing ``runtime.engine`` is all that remains.
    """
    with _obs.span(
        "fed.build",
        "fed",
        clusters=spec.cluster_count,
        nodes=spec.total_nodes,
        seed=spec.seed,
    ):
        engine = EventEngine(seed=spec.seed)
        domains = [
            _build_domain(spec, cluster_id, engine)
            for cluster_id in range(spec.cluster_count)
        ]
        fog = FogTier(engine, spec, domains)
        lookups = CrossLookupDriver(
            fog,
            rng=random.Random(derived_seed(spec.seed, "lookup-fallback", 0)),
        )
        runtime = FederationRuntime(
            spec=spec, engine=engine, domains=domains, fog=fog, lookups=lookups
        )
        _plan_cross_lookups(
            runtime, np.random.default_rng(derived_seed(spec.seed, "lookups", 0))
        )
        engine.call_at(
            spec.membership_window_seconds, _FormationGate(runtime).fire
        )
    _obs.attach_runtime(runtime, engine.clock_reader())
    return runtime
