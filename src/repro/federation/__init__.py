"""Hierarchical edge federation: sharded clusters under a fog tier.

The paper's deployment story is *pervasive* — far more devices than one
flat cluster can absorb.  This package scales the reproduction the way
ElfStore/EdgeLake scale edge storage (PAPERS.md): K independent edge
clusters, each a full instance of the existing machinery (SWIM
formation, a Raft general-information group, the PoS metadata chain and
its UFL allocation domain), bridged by fog **super-peers** that replicate
a bloom-summarized cross-cluster metadata directory and route lookups
and migrations between clusters.  Aggregate throughput grows with K
while per-cluster load stays bounded — the federation bench pins that.

The fog tier itself is byzantine-tolerant (DESIGN.md §16): directory
entries are gateway-attested, super-peers are misbehavior-scored and
quarantined, and a quarantined peer's home clusters fail over to a
deterministic sibling.  :mod:`repro.federation.adversaries` holds the
fog-tier adversary catalogue the chaos harness runs against it.

Entry points: ``repro fed run`` / ``repro fed resume`` / ``repro fed
chaos`` on the CLI, :func:`run_federation` and friends here.
"""

from repro.federation.adversaries import (
    FOG_ADVERSARY_TYPES,
    FogAdversaryPeer,
    GatewayTampererPeer,
    GossipSuppressorPeer,
    SummaryPoisonerPeer,
    VersionInflatorPeer,
    windowed_fog_class,
)
from repro.federation.chaos import (
    FOG_LOOKUP_SUCCESS_FLOOR,
    FederatedChaosResult,
    FederatedChaosSpec,
    compute_federated_verdict,
    compute_fog_section,
    run_federated_chaos,
)
from repro.federation.directory import BloomFilter, ClusterSummary, DirectoryReplica
from repro.federation.fog import (
    CrossLookupDriver,
    FogAdmission,
    FogCounters,
    FogTier,
    SuperPeer,
)
from repro.federation.runner import (
    FederationResult,
    collect_federation_metrics,
    resume_federation,
    run_federation,
)
from repro.federation.runtime import (
    ClusterDomain,
    FederationRuntime,
    build_federation_runtime,
)
from repro.federation.spec import (
    FederationSpec,
    FederationSpecError,
    cluster_seed,
    derived_seed,
)

__all__ = [
    "BloomFilter",
    "ClusterSummary",
    "DirectoryReplica",
    "ClusterDomain",
    "CrossLookupDriver",
    "FOG_ADVERSARY_TYPES",
    "FOG_LOOKUP_SUCCESS_FLOOR",
    "FederatedChaosResult",
    "FederatedChaosSpec",
    "FederationResult",
    "FederationRuntime",
    "FederationSpec",
    "FederationSpecError",
    "FogAdmission",
    "FogAdversaryPeer",
    "FogCounters",
    "FogTier",
    "GatewayTampererPeer",
    "GossipSuppressorPeer",
    "SummaryPoisonerPeer",
    "SuperPeer",
    "VersionInflatorPeer",
    "build_federation_runtime",
    "cluster_seed",
    "collect_federation_metrics",
    "compute_federated_verdict",
    "compute_fog_section",
    "derived_seed",
    "resume_federation",
    "run_federated_chaos",
    "run_federation",
    "windowed_fog_class",
]
