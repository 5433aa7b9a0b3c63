"""Federation-aware chaos: whole-cluster adversaries and blast radius.

The single-cluster chaos suite (:mod:`repro.chaos`) asks "did safety and
liveness survive N adversaries *inside* the cluster?".  Federation adds a
containment question: if an entire cluster turns Byzantine — every node
running a windowed adversary class — does the damage stay inside it?
The architecture says it must: clusters share no network plane, only the
fog directory, and the directory carries summaries that sibling clusters
never execute.  The **blast-radius check** pins that invariant: every
sibling (non-Byzantine) cluster's end-of-run safety verdict, computed by
the unchanged single-cluster :func:`repro.chaos.verdict.compute_verdict`,
must come back clean.

The combined artifact is written under the same ``chaos_verdict.json``
name the single-cluster harness uses, version-stamped the same way, with
a ``blast_radius`` section on top of the per-cluster verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.chaos.adversaries import ADVERSARY_TYPES
from repro.chaos.scenario import ChaosSpec
from repro.chaos.verdict import compute_verdict
from repro.federation.adversaries import FOG_ADVERSARY_TYPES, windowed_fog_class
from repro.federation.runner import FederationResult, run_federation
from repro.federation.spec import FederationSpec
from repro.obs.export import write_json
from repro.version import package_version

PathLike = Union[str, Path]

FEDERATED_CHAOS_SCHEMA = "repro.chaos.federated/v1"

#: Minimum cross-cluster lookup success rate the fog section demands when
#: every cluster is honest: directory failover must keep the majority of
#: lookups resolving even while a super-peer misbehaves and is cut out.
FOG_LOOKUP_SUCCESS_FLOOR = 0.5


@dataclass(frozen=True)
class FederatedChaosSpec:
    """A federated run with whole-cluster adversary overlays."""

    federation: FederationSpec
    #: Clusters whose every node runs the adversary behavior.
    byzantine_clusters: Tuple[int, ...] = ()
    behavior: str = "equivocator"
    start_minutes: float = 2.0
    stop_minutes: Optional[float] = None  # default: end of run
    #: Fog-tier adversaries: behavior name → super-peer ids running it
    #: (same window as the node adversaries).
    fog_adversaries: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.behavior not in ADVERSARY_TYPES:
            known = ", ".join(sorted(ADVERSARY_TYPES))
            raise ValueError(f"unknown behavior {self.behavior!r} (known: {known})")
        for cluster_id in self.byzantine_clusters:
            if not (0 <= cluster_id < self.federation.cluster_count):
                raise ValueError(f"byzantine cluster {cluster_id} out of range")
        if len(self.byzantine_clusters) >= self.federation.cluster_count:
            raise ValueError("at least one cluster must stay honest")
        if self.start_minutes < 0:
            raise ValueError("adversary start must be non-negative")
        if self.stop_minutes is not None and self.stop_minutes <= self.start_minutes:
            raise ValueError("adversary stop must come after start")
        compromised = set()
        for fog_behavior, peer_ids in self.fog_adversaries.items():
            if fog_behavior not in FOG_ADVERSARY_TYPES:
                known = ", ".join(sorted(FOG_ADVERSARY_TYPES))
                raise ValueError(
                    f"unknown fog behavior {fog_behavior!r} (known: {known})"
                )
            for peer_id in peer_ids:
                if not (0 <= peer_id < self.federation.super_peer_count):
                    raise ValueError(f"fog peer {peer_id} out of range")
                if peer_id in compromised:
                    raise ValueError(f"fog peer {peer_id} assigned twice")
                compromised.add(peer_id)
        if compromised and len(compromised) >= self.federation.super_peer_count:
            raise ValueError("at least one super-peer must stay honest")

    @property
    def stop_seconds(self) -> float:
        if self.stop_minutes is not None:
            return self.stop_minutes * 60.0
        return self.federation.duration_seconds

    def windowed_class(self) -> type:
        """The behavior class bounded to the chaos window (sim fabric)."""
        base = ADVERSARY_TYPES[self.behavior]
        return type(
            f"{base.__name__}Windowed",
            (base,),
            {
                "chaos_start": self.start_minutes * 60.0,
                "chaos_stop": self.stop_seconds,
            },
        )

    @property
    def fog_adversary_peers(self) -> Tuple[int, ...]:
        """All compromised super-peer ids, sorted."""
        return tuple(
            sorted(
                peer_id
                for peer_ids in self.fog_adversaries.values()
                for peer_id in peer_ids
            )
        )

    def fog_peer_classes(self) -> Dict[int, type]:
        """super-peer id → windowed adversary class for the fog tier."""
        classes: Dict[int, type] = {}
        for fog_behavior, peer_ids in self.fog_adversaries.items():
            adversary = windowed_fog_class(
                fog_behavior, self.start_minutes * 60.0, self.stop_seconds
            )
            for peer_id in peer_ids:
                classes[peer_id] = adversary
        return classes

    def node_classes_by_cluster(self) -> Dict[int, Dict[int, type]]:
        adversary = self.windowed_class()
        return {
            cluster_id: {
                node_id: adversary
                for node_id in range(self.federation.nodes_per_cluster)
            }
            for cluster_id in self.byzantine_clusters
        }

    def cluster_chaos_spec(self, cluster_id: int) -> ChaosSpec:
        """The single-cluster ChaosSpec this cluster effectively ran."""
        fed = self.federation
        adversaries: Dict[str, Tuple[int, ...]] = {}
        if cluster_id in self.byzantine_clusters:
            adversaries = {
                self.behavior: tuple(range(fed.nodes_per_cluster))
            }
        return ChaosSpec(
            node_count=fed.nodes_per_cluster,
            config=fed.config,
            seed=fed.seed_for(cluster_id),
            duration_minutes=fed.duration_seconds / 60.0,
            adversaries=adversaries,
            start_minutes=self.start_minutes,
            stop_minutes=self.stop_seconds / 60.0,
            fabric="sim",
        )


@dataclass
class FederatedChaosResult:
    """The run, its per-cluster verdicts, and the blast-radius check."""

    spec: FederatedChaosSpec
    run: FederationResult
    verdict: Dict[str, Any]

    def write_verdict(self, path: PathLike) -> Path:
        return write_json(self.verdict, path)


def compute_federated_verdict(
    spec: FederatedChaosSpec, result: FederationResult
) -> Dict[str, Any]:
    """Per-cluster verdicts plus the blast-radius containment check.

    Byzantine clusters are *sacrificed by construction* — with zero
    honest members there is no honest invariant to evaluate, so they get
    a marker entry instead of a verdict.  The blast radius is ``ok`` iff
    every sibling cluster's safety section is clean.
    """
    clusters: Dict[str, Any] = {}
    sibling_safety: Dict[str, bool] = {}
    for domain in result.runtime.domains:
        key = str(domain.cluster_id)
        if domain.cluster_id in spec.byzantine_clusters:
            clusters[key] = {
                "status": "sacrificed",
                "note": f"whole cluster ran {spec.behavior}; no honest invariant",
            }
            continue
        verdict = compute_verdict(
            spec.cluster_chaos_spec(domain.cluster_id), domain.cluster.nodes
        )
        clusters[key] = verdict
        sibling_safety[key] = bool(verdict["safety"]["ok"])
    blast_ok = all(sibling_safety.values()) if sibling_safety else False
    sibling_statuses = [
        clusters[key]["status"] for key in sibling_safety
    ]
    fog = compute_fog_section(spec, result)
    if not blast_ok or "critical" in sibling_statuses or not fog["ok"]:
        status = "critical"
    elif "warning" in sibling_statuses:
        status = "warning"
    else:
        status = "ok"
    return {
        "schema": FEDERATED_CHAOS_SCHEMA,
        "version": package_version(),
        "status": status,
        "behavior": spec.behavior,
        "seed": spec.federation.seed,
        "clusters": clusters,
        "blast_radius": {
            "ok": blast_ok,
            "byzantine_clusters": sorted(spec.byzantine_clusters),
            "sibling_safety": sibling_safety,
        },
        "fog": fog,
    }


def compute_fog_section(
    spec: FederatedChaosSpec, result: FederationResult
) -> Dict[str, Any]:
    """The fog containment section of the federated verdict.

    ``ok`` demands three things of the fog tier, adversaries or not:

    * **honest-replica convergence** — every non-quarantined replica
      holds an entry for every cluster and none of those entries
      contradicts the cluster chain it summarises (byzantine clusters,
      sacrificed by construction, are exempt from the contradiction
      check — their chains owe nobody append-only behavior);
    * **lookup-success floor** — when every cluster is honest and
      lookups were attempted, at least
      :data:`FOG_LOOKUP_SUCCESS_FLOOR` of them resolved (failover must
      actually carry the load of a cut-out super-peer);
    * **no honest super-peer quarantined** — scoring never turned on
      a peer that wasn't compromised.
    """
    fog = result.runtime.fog
    aggregate = result.aggregate
    adversary_peers = spec.fog_adversary_peers
    quarantined = sorted(fog.admission.quarantined)
    honest_quarantined = sorted(set(quarantined) - set(adversary_peers))
    attempted = aggregate["lookups_ok"] + aggregate["lookups_failed"]
    success_rate = (
        aggregate["lookups_ok"] / attempted if attempted > 0 else None
    )
    floor_applies = not spec.byzantine_clusters and attempted > 0
    divergent = fog.directory_divergence(
        exclude_clusters=spec.byzantine_clusters
    )
    active = [
        peer
        for peer in fog.peers
        if not fog.admission.is_quarantined(peer.peer_id)
    ]
    entries_complete = bool(active) and all(
        len(peer.replica.entries) == spec.federation.cluster_count
        for peer in active
    )
    replicas_converged = entries_complete and divergent == 0
    floor_met = (
        not floor_applies
        or (success_rate is not None and success_rate >= FOG_LOOKUP_SUCCESS_FLOOR)
    )
    return {
        "ok": bool(replicas_converged and floor_met and not honest_quarantined),
        "adversaries": {
            behavior: sorted(peer_ids)
            for behavior, peer_ids in sorted(spec.fog_adversaries.items())
        },
        "replicas_converged": replicas_converged,
        "divergent_entries": divergent,
        "lookups_ok": aggregate["lookups_ok"],
        "lookups_failed": aggregate["lookups_failed"],
        "lookup_success_rate": success_rate,
        "lookup_success_floor": FOG_LOOKUP_SUCCESS_FLOOR,
        "success_floor_applies": floor_applies,
        "lookup_fallbacks": aggregate["lookup_fallbacks"],
        "bloom_fp_probes": aggregate["bloom_fp_probes"],
        "verify_rejected": aggregate["verify_rejected"],
        "attestation_rejected": aggregate["attestation_rejected"],
        "migrations": aggregate["migrations"],
        "migrations_rejected": aggregate["migrations_rejected"],
        "quarantined_peers": quarantined,
        "honest_peers_quarantined": honest_quarantined,
        "quarantined_at": {
            str(peer_id): when
            for peer_id, when in sorted(fog.admission.quarantined_at.items())
        },
        "rehomed_clusters": {
            str(cluster_id): peer_id
            for cluster_id, peer_id in sorted(fog.rehomed.items())
        },
        "scores": {
            str(peer_id): score
            for peer_id, score in sorted(fog.admission.scores.items())
        },
    }


def run_federated_chaos(spec: FederatedChaosSpec) -> FederatedChaosResult:
    """Run the federation with the adversary overlay and judge containment."""
    fed_spec = replace(
        spec.federation,
        node_classes_by_cluster=spec.node_classes_by_cluster(),
        fog_peer_classes=spec.fog_peer_classes() or None,
        # A Byzantine cluster's migrations would push tampered metadata at
        # sibling gateways; with clusters sacrificed, lookups are expected
        # to fail against them instead.  Fog-only chaos keeps migration on
        # — driver-initiated pulls are part of what failover must protect.
        migrate_fraction=(
            0.0 if spec.byzantine_clusters else spec.federation.migrate_fraction
        ),
    )
    result = run_federation(fed_spec)
    verdict = compute_federated_verdict(spec, result)
    return FederatedChaosResult(spec=spec, run=result, verdict=verdict)
