"""Run, checkpoint, resume, and measure federated experiments.

A federation advances through :func:`repro.sim.runner.advance`, as a
single cluster does; with ``persist_dir`` set it is snapshotted after
every segment, which ends on the next multiple of
``snapshot_every_seconds`` from clock 0 (or on the pause point), and
``repro fed resume`` restores the newest snapshot through
:func:`repro.persist.snapshot.restore_latest` with per-cluster digests
intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.errors import PersistError
from repro.federation.runtime import FederationRuntime, build_federation_runtime
from repro.federation.spec import FederationSpec
from repro.metrics.collector import RunMetrics
from repro.obs import runtime as _obs
from repro.sim.runner import advance, collect_metrics

PathLike = Union[str, Path]

#: Default simulated seconds between durable snapshots of a federation.
DEFAULT_SNAPSHOT_SECONDS = 120.0


@dataclass
class FederationResult:
    """Per-cluster metrics plus federation-level aggregates."""

    spec: FederationSpec
    runtime: FederationRuntime
    cluster_metrics: List[RunMetrics]
    aggregate: Dict[str, Any]


def _items_on_chain(cluster: Any) -> int:
    """Metadata items accounted on the longest chain.

    Unpruned, this is every item ever packed.  Once the body prefix is
    pruned the cold blocks can't be walked, so unexpired cold items are
    recovered from the state's metadata index instead — a floor on the
    true census (expired cold items are gone for good, by design).
    """
    chain = cluster.longest_chain_node().chain
    packed = sum(len(block.metadata_items) for block in chain.blocks)
    if chain.first_retained_index == 0:
        return packed
    hot = {
        item.data_id for block in chain.blocks for item in block.metadata_items
    }
    cold = sum(
        1 for data_id in chain.state.metadata_index if data_id not in hot
    )
    return packed + cold


def _mempool_depth(cluster: Any) -> int:
    """Deepest per-node backlog of packed-nowhere-yet metadata items."""
    return max(len(node.mempool) for node in cluster.nodes.values())


def collect_federation_metrics(runtime: FederationRuntime) -> FederationResult:
    """Derive per-cluster metrics and federation aggregates."""
    with _obs.span("fed.collect", "fed"):
        spec = runtime.spec
        cluster_metrics = [
            collect_metrics(domain.runtime) for domain in runtime.domains
        ]
        minutes = spec.duration_seconds / 60.0
        per_cluster = []
        for domain, metrics in zip(runtime.domains, cluster_metrics):
            chain = domain.cluster.longest_chain_node().chain
            checkpoint_index = chain.last_checkpoint()
            pinned = chain.checkpoints.get(checkpoint_index)
            per_cluster.append(
                {
                    "cluster_id": domain.cluster_id,
                    "height": chain.height,
                    "chain_digest": chain.chain_digest(),
                    "last_checkpoint": checkpoint_index,
                    "checkpoint_digest": (
                        chain.block_at(checkpoint_index).current_hash
                        if chain.has_block(checkpoint_index)
                        else (pinned.block_hash if pinned is not None else "")
                    ),
                    "first_retained": chain.first_retained_index,
                    "items_on_chain": _items_on_chain(domain.cluster),
                    "mempool_depth": _mempool_depth(domain.cluster),
                    "formation_converged": domain.formation_converged,
                    "data_items_produced": metrics.data_items_produced,
                    "failed_requests": metrics.failed_requests,
                    "avg_node_mb": metrics.average_node_megabytes(),
                }
            )
        counters = runtime.fog.counters
        aggregate = {
            "clusters": spec.cluster_count,
            "nodes_per_cluster": spec.nodes_per_cluster,
            "total_nodes": spec.total_nodes,
            "duration_minutes": minutes,
            "finished": runtime.finished,
            "per_cluster": per_cluster,
            "aggregate_items_per_minute": (
                sum(entry["items_on_chain"] for entry in per_cluster) / minutes
            ),
            "aggregate_blocks_per_minute": (
                sum(entry["height"] for entry in per_cluster) / minutes
            ),
            "max_mempool_depth": max(
                entry["mempool_depth"] for entry in per_cluster
            ),
            "lookups_ok": counters.lookups_ok,
            "lookups_failed": counters.lookups_failed,
            "lookup_fallbacks": counters.lookup_fallbacks,
            "migrations": counters.migrations,
            "migrations_rejected": counters.migrations_rejected,
            "gossip_rounds": counters.gossip_rounds,
            "bloom_fp_probes": counters.bloom_fp_probes,
            "verify_rejected": counters.verify_rejected,
            "attestation_rejected": counters.attestation_rejected,
            "fog_quarantined": sorted(runtime.fog.admission.quarantined),
            "rehomed_clusters": {
                str(cluster_id): peer_id
                for cluster_id, peer_id in sorted(runtime.fog.rehomed.items())
            },
            "directory_staleness": runtime.fog.directory_staleness(
                runtime.engine.now
            ),
            "directory_digest": runtime.directory_digest(),
            "chain_digests": runtime.cluster_digests(),
        }
        return FederationResult(
            spec=spec,
            runtime=runtime,
            cluster_metrics=cluster_metrics,
            aggregate=aggregate,
        )


def advance_federation(
    runtime: FederationRuntime,
    persist_dir: Optional[PathLike] = None,
    snapshot_every_seconds: float = DEFAULT_SNAPSHOT_SECONDS,
    stop_after_seconds: Optional[float] = None,
) -> FederationResult:
    """Advance to the duration (or ``stop_after_seconds`` past the current
    clock), then measure.

    With ``persist_dir``, a snapshot follows every snapshot-cadence
    segment — a kill at any point loses at most one segment, and
    :func:`resume_federation` picks up from the newest snapshot.
    """
    after_segment = None
    if persist_dir is not None:
        from repro.persist.snapshot import write_snapshot

        after_segment = partial(write_snapshot, persist_dir, runtime)
    advance(runtime, stop_after_seconds, snapshot_every_seconds, after_segment)
    return collect_federation_metrics(runtime)


def run_federation(
    spec: FederationSpec,
    persist_dir: Optional[PathLike] = None,
    snapshot_every_seconds: float = DEFAULT_SNAPSHOT_SECONDS,
    stop_after_seconds: Optional[float] = None,
) -> FederationResult:
    """Build, run, and measure one federated experiment."""
    runtime = build_federation_runtime(spec)
    return advance_federation(
        runtime,
        persist_dir=persist_dir,
        snapshot_every_seconds=snapshot_every_seconds,
        stop_after_seconds=stop_after_seconds,
    )


def resume_federation(
    directory: PathLike,
    snapshot_every_seconds: float = DEFAULT_SNAPSHOT_SECONDS,
    stop_after_seconds: Optional[float] = None,
) -> FederationResult:
    """Continue a killed federated run from its newest valid snapshot."""
    from repro.persist.snapshot import restore_latest

    runtime, _, skipped = restore_latest(directory, FederationRuntime)
    if runtime is None:
        raise PersistError(
            f"no usable snapshot in {directory}"
            + (f" (skipped: {'; '.join(skipped)})" if skipped else "")
        )
    return advance_federation(
        runtime,
        persist_dir=directory,
        snapshot_every_seconds=snapshot_every_seconds,
        stop_after_seconds=stop_after_seconds,
    )
