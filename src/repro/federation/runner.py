"""Run, journal, resume, and measure federated experiments.

A federation advances through :func:`repro.sim.runner.advance`, as a
single cluster does.  With ``persist_dir`` set it is durable the way a
single cluster is: ``manifest.json`` holds the :class:`FederationSpec`,
and a :class:`~repro.persist.journal.RunJournal` gets one record per
:data:`SEGMENT_SECONDS` segment (and at a pause) with every cluster's
chain digest and the fog directory's digest.  :func:`resume_federation`
rebuilds the runtime from the spec and replays it, checking every
replayed segment against the journal record at that clock, then
journals on past the journal's end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import PersistError
from repro.federation.runtime import FederationRuntime, build_federation_runtime
from repro.federation.spec import FederationSpec
from repro.metrics.collector import RunMetrics
from repro.obs import runtime as _obs
from repro.persist.journal import REC_SEGMENT, RunJournal, recover_journal
from repro.persist.resume import (
    JOURNAL_NAME,
    KIND_FEDERATION,
    STATUS_RUNNING,
    complete_manifest,
    config_from_dict,
    decoding,
    resumable_manifest,
    start_manifest,
)
from repro.sim.runner import ChurnSpec, advance, collect_metrics

PathLike = Union[str, Path]

#: Simulated seconds between the journal records of a durable federation.
SEGMENT_SECONDS = 120.0


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


def _persistable(spec: FederationSpec) -> FederationSpec:
    if spec.node_classes_by_cluster or spec.fog_peer_classes:
        raise PersistError(
            "federations with planted adversaries (node_classes_by_cluster, "
            "fog_peer_classes) cannot be persisted: classes do not serialise "
            "into a run manifest"
        )
    return spec


def _spec_from_dict(payload: Dict[str, Any]) -> FederationSpec:
    with decoding("federation spec"):
        fields = dict(payload)
        churn = fields.get("churn")
        fields["config"] = config_from_dict(fields["config"])
        fields["churn"] = None if churn is None else ChurnSpec(**churn)
        return _persistable(FederationSpec(**fields))


class _SegmentLog:
    """The ``after_segment`` callback of a durable federation.

    At each segment end it takes the clock's per-cluster chain digests
    and directory digest.  While the journal still holds records (a
    replay), the record at that clock must carry the same digests; past
    the journal's end, the digests are appended as a new record.
    """

    def __init__(
        self,
        runtime: FederationRuntime,
        journal: RunJournal,
        recorded: Sequence[Tuple[float, Dict[str, Any]]] = (),
    ):
        self.runtime = runtime
        self.journal = journal
        self.pending = deque(recorded)

    def __call__(self) -> None:
        clock = self.runtime.engine.now
        digests = {
            "chain_digests": self.runtime.cluster_digests(),
            "directory_digest": self.runtime.directory_digest(),
        }
        # A pause off the segment grid left a record no replay stops at.
        while self.pending and self.pending[0][0] < clock:
            self.pending.popleft()
        if not self.pending:
            self.journal.append(REC_SEGMENT, clock, digests)
            return
        recorded_clock, recorded = self.pending.popleft()
        if recorded_clock != clock:
            raise PersistError(
                f"federation journal has no record at segment end t={clock:g}s"
            )
        if recorded != digests:
            raise PersistError(
                f"resumed federation diverged from its journal at t={clock:g}s"
            )


def run_federation(
    spec: FederationSpec,
    persist_dir: Optional[PathLike] = None,
    stop_after_seconds: Optional[float] = None,
) -> FederationResult:
    """Build, run, and measure one federated experiment; ``persist_dir``
    makes it durable (a manifest and a digest journal)."""
    if persist_dir is None:
        runtime = build_federation_runtime(spec)
        advance(runtime, stop_after_seconds)
        return collect_federation_metrics(runtime)
    directory = start_manifest(
        persist_dir,
        KIND_FEDERATION,
        {"status": STATUS_RUNNING, "spec": asdict(_persistable(spec))},
    )
    runtime = build_federation_runtime(spec)
    with RunJournal.open(directory / JOURNAL_NAME) as journal:
        log = _SegmentLog(runtime, journal)
        completed = advance(runtime, stop_after_seconds, SEGMENT_SECONDS, log)
    if completed:  # once the journal is closed, so synced
        complete_manifest(directory, KIND_FEDERATION, completed_at_clock=runtime.engine.now)
    return collect_federation_metrics(runtime)


def resume_federation(
    directory: PathLike, stop_after_seconds: Optional[float] = None
) -> FederationResult:
    """Continue a killed or paused federated run by replay.

    The runtime is rebuilt from the manifest's spec and advanced to the
    clock of the journal's last intact record, each replayed segment
    checked against the record at that clock (:class:`PersistError` on
    the first mismatch); ``stop_after_seconds`` counts from there.
    """
    directory = Path(directory)
    spec = _spec_from_dict(resumable_manifest(directory, KIND_FEDERATION).get("spec"))
    recorded: List[Tuple[float, Dict[str, Any]]] = []

    def fold(position: int, record) -> None:
        if record.type == REC_SEGMENT:
            recorded.append((record.clock, record.payload))

    recovery = recover_journal(directory / JOURNAL_NAME, visit=fold)
    if recovery.corrupt:
        raise PersistError(
            f"journal in {directory} is corrupt mid-file ({recovery.reason}); "
            "refusing to resume"
        )
    resume_at = recorded[-1][0] if recorded else 0.0
    with RunJournal.open(directory / JOURNAL_NAME) as journal:
        # The replay is recovery, not the run being observed.
        with _obs.suspended():
            runtime = build_federation_runtime(spec)
            log = _SegmentLog(runtime, journal, recorded)
            advance(runtime, resume_at, SEGMENT_SECONDS, log)
        _obs.attach_runtime(runtime, runtime.engine.clock_reader())
        completed = advance(runtime, stop_after_seconds, SEGMENT_SECONDS, log)
    if completed:
        complete_manifest(directory, KIND_FEDERATION, completed_at_clock=runtime.engine.now)
    return collect_federation_metrics(runtime)
