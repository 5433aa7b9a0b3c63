"""Durable runs: journaled execution, crash recovery, deterministic resume.

This module glues the three persistence primitives to the simulation
runner:

* :func:`run_persistent` — run an experiment inside a run directory,
  journaling every mined block (write-ahead of the SQLite store),
  snapshotting the full runtime periodically, and finalising metrics on
  completion.  ``stop_after_seconds`` pauses cleanly mid-run (chunked
  long sweeps); a crash/kill at any point is equally recoverable.
* :func:`resume_run` — recover a run directory: journal tail recovery,
  store catch-up from the journal (journal is the source of truth),
  restore of the newest valid snapshot through
  :func:`~repro.persist.snapshot.restore_latest` (a from-genesis
  deterministic replay when none survives), and continuation.

Both advance through :func:`repro.sim.runner.advance` in
``journal_every_seconds`` segments, as a plain run does in one go; what
is durable about the run is the callback after each segment, which
journals the new blocks and writes a snapshot when one is due.  That
callback lives for one call and is never pickled: a durable run
processes the same engine events as the plain run of its spec.

Determinism is the load-bearing invariant: the simulation is a closed
system over its seeded RNGs, so *run → kill → resume* must reproduce the
uninterrupted run byte for byte.  Resume enforces this actively — every
block re-mined after the snapshot is checked against the journal records
written before the crash, and any divergence aborts with
:class:`~repro.core.errors.PersistError` instead of silently forking
history.  The persistence hooks themselves never touch simulation state
or RNGs, so a durable run also produces exactly the same metrics as a
plain :func:`~repro.sim.runner.run_experiment` with the same spec.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.errors import PersistError, ValidationError
from repro.core.serialization import block_from_dict, block_to_dict
from repro.lifecycle.archive import ARCHIVE_NAME, BlockArchive
from repro.metrics.collector import RunMetrics
from repro.metrics.export import metrics_to_record, store_chain_record
from repro.persist.chainstore import ChainStore
from repro.persist.journal import (
    REC_BLOCK,
    REC_CHECKPOINT,
    REC_COMPLETE,
    REC_REORG,
    REC_RUN_START,
    WRITE_BATCH,
    JournalRecord,
    JournalRecovery,
    RunJournal,
    recover_journal,
)
from repro.persist.snapshot import (
    SnapshotInfo,
    inspect_snapshot,
    restore_latest,
    snapshot_paths,
    write_snapshot,
)
from repro.sim.runner import (
    ChurnSpec,
    ExperimentResult,
    ExperimentSpec,
    SimRuntime,
    advance,
    build_runtime,
    collect_metrics,
    grid_after,
)

PathLike = Union[str, Path]

#: Bumped on breaking changes to the run-directory layout.
MANIFEST_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
STORE_NAME = "chain.sqlite"
METRICS_NAME = "metrics.json"
CHAIN_SUMMARY_NAME = "chain_summary.json"

STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"


@dataclass(frozen=True)
class PersistConfig:
    """Tunables of the durable-run machinery (all in simulated seconds)."""

    journal_every_seconds: float = 30.0
    snapshot_every_seconds: float = 600.0
    snapshot_retain: int = 2
    fsync_every: int = WRITE_BATCH

    def __post_init__(self) -> None:
        if self.journal_every_seconds <= 0:
            raise ValueError("journal interval must be positive")
        if self.snapshot_every_seconds <= 0:
            raise ValueError("snapshot interval must be positive")


# -- spec (de)serialisation ----------------------------------------------------------


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    if spec.node_classes:
        raise PersistError(
            "runs with custom node_classes (planted adversaries) cannot be "
            "persisted: classes do not serialise into a run manifest"
        )
    return {
        "node_count": spec.node_count,
        "seed": spec.seed,
        "duration_minutes": spec.duration_minutes,
        "mobility_epoch_minutes": spec.mobility_epoch_minutes,
        "churn": None if spec.churn is None else asdict(spec.churn),
        "config": asdict(spec.config),
    }


def spec_from_dict(payload: Dict[str, Any]) -> ExperimentSpec:
    try:
        churn = payload["churn"]
        config_payload = dict(payload["config"])
        lifecycle = config_payload.get("lifecycle")
        if isinstance(lifecycle, dict):
            # ``asdict`` flattens the nested dataclass on the way out.
            config_payload["lifecycle"] = LifecycleSpec(**lifecycle)
        return ExperimentSpec(
            node_count=int(payload["node_count"]),
            config=SystemConfig(**config_payload),
            seed=int(payload["seed"]),
            duration_minutes=payload["duration_minutes"],
            mobility_epoch_minutes=float(payload["mobility_epoch_minutes"]),
            churn=None if churn is None else ChurnSpec(**churn),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise PersistError(f"malformed experiment spec: {error}") from error


# -- manifest ------------------------------------------------------------------------


def _write_json_atomic(path: Path, document: Dict[str, Any]) -> None:
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    path = Path(directory) / MANIFEST_NAME
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as error:
        raise PersistError(f"{directory} is not a run directory: {error}") from error
    except json.JSONDecodeError as error:
        raise PersistError(f"manifest {path} is corrupt: {error}") from error
    version = manifest.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise PersistError(
            f"manifest {path} has schema v{version!r}, "
            f"this build reads v{MANIFEST_SCHEMA_VERSION}"
        )
    return manifest


# -- the session: everything holding OS resources (never pickled) --------------------


class PersistSession:
    """Open handles on one run directory (journal, store, snapshots)."""

    def __init__(
        self, directory: PathLike, persist: PersistConfig, journal: RunJournal,
        store: ChainStore,
    ):
        self.directory = Path(directory)
        self.persist = persist
        self.journal = journal
        self.store = store
        #: Journal records ahead of the restored snapshot: height → hash.
        #: Re-mined blocks must match these exactly (determinism check).
        self.verify_tail: Dict[int, str] = {}
        self.blocks_verified = 0
        #: Cold-archive handle, opened on the first compaction.
        self.archive: Optional[BlockArchive] = None

    def compact_to(self, horizon: int, checkpoints=None) -> int:
        """Move store rows below ``horizon`` into the cold archive."""
        if horizon <= self.store.pruned_below():
            return 0
        if self.archive is None:
            self.archive = BlockArchive(self.directory / ARCHIVE_NAME)
        return self.store.compact(self.archive, horizon, checkpoints)

    def record_block(self, block, clock: float) -> None:
        expected = self.verify_tail.pop(block.index, None)
        if expected is not None:
            if expected != block.current_hash:
                raise PersistError(
                    f"resumed run diverged from journal at block {block.index}: "
                    f"journal has {expected[:12]}…, re-mined "
                    f"{block.current_hash[:12]}…"
                )
            self.blocks_verified += 1
            # Already journaled before the crash — only ensure the store
            # caught up (idempotent).
            self.store.put_block(block)
            return
        self.journal.append(
            REC_BLOCK,
            clock,
            {
                "index": block.index,
                "hash": block.current_hash,
                "block": block_to_dict(block),
            },
        )
        # Write-ahead: the journal hits the OS before the store row.
        self.store.put_block(block)

    def record_reorg(self, from_height: int, clock: float) -> None:
        self.journal.append(REC_REORG, clock, {"from": from_height})
        self.verify_tail = {
            height: block_hash
            for height, block_hash in self.verify_tail.items()
            if height < from_height
        }

    def sync(self) -> None:
        """Fsync the journal, then commit the store rows it has staged."""
        self.journal.sync()
        self.store.commit()

    def close(self) -> None:
        self.journal.close()
        self.store.close()


class _Journaler:
    """The ``after_segment`` callback of a durable run's
    :func:`~repro.sim.runner.advance`: after every ``journal_every_seconds``
    segment, journal the blocks the longest chain gained (with explicit
    reorg records), then snapshot once the clock reaches the next multiple
    of ``snapshot_every_seconds``.

    Built for one :func:`run_persistent` / :func:`resume_run` call; the
    runtime never refers to it, so it is never pickled.  A snapshot always
    follows a flush, so a restored runtime's reference chain is exactly
    what was journaled.
    """

    def __init__(self, runtime: SimRuntime, session: PersistSession, restored: bool):
        self.runtime = runtime
        self.session = session
        self.persist = session.persist
        #: -1 on a fresh build, so the first flush journals genesis too.
        self.journaled_height = -1
        self.journaled_hashes: Dict[int, str] = {}
        if restored:
            chain = runtime.cluster.longest_chain_node().chain
            self.journaled_height = chain.height
            self.journaled_hashes = {
                block.index: block.current_hash for block in chain.blocks
            }
        self.next_snapshot_at = grid_after(
            runtime.engine.now, self.persist.snapshot_every_seconds
        )
        #: Clock of this call's latest snapshot (a pause writes none twice).
        self.snapshot_clock: Optional[float] = None

    def __call__(self) -> None:
        self.flush()
        if self.runtime.engine.now >= self.next_snapshot_at:
            self.snapshot()

    def flush(self) -> None:
        """Journal every block the longest chain gained since last time."""
        chain = self.runtime.cluster.longest_chain_node().chain
        clock = self.runtime.engine.now
        floor = chain.first_retained_index
        agree = min(self.journaled_height, chain.height)
        while agree > 0:
            if agree < floor:
                raise PersistError(
                    f"journal agreement point fell below the pruning "
                    f"horizon {floor}: cannot journal a pruned reorg"
                )
            if self.journaled_hashes.get(agree) == chain.block_at(agree).current_hash:
                break
            agree -= 1
        if agree < self.journaled_height:
            self.session.record_reorg(agree + 1, clock)
            for height in range(agree + 1, self.journaled_height + 1):
                self.journaled_hashes.pop(height, None)
        if agree + 1 < floor:
            raise PersistError(
                f"journal height {agree} fell behind the pruning horizon "
                f"{floor}: the bodies to journal were already pruned"
            )
        for height in range(agree + 1, chain.height + 1):
            block = chain.block_at(height)
            self.session.record_block(block, clock)
            self.journaled_hashes[height] = block.current_hash
        self.journaled_height = chain.height
        # Pruning must never outrun the journal: any node may become the
        # reference chain, so cap every node's prune floor at the height
        # just journaled — a fast-block burst within a segment then
        # retains its bodies until the next flush instead of dropping
        # rows the store has never seen.
        for node in self.runtime.cluster.nodes.values():
            node.chain.prune_floor_limit = self.journaled_height

    def snapshot(self) -> None:
        """Checkpoint the journal, then snapshot the runtime it matches."""
        clock = self.snapshot_clock = self.runtime.engine.now
        self.next_snapshot_at = grid_after(clock, self.persist.snapshot_every_seconds)
        self.session.journal.append(
            REC_CHECKPOINT, clock, {"height": self.journaled_height}
        )
        self.session.sync()
        write_snapshot(
            self.session.directory, self.runtime, retain=self.persist.snapshot_retain
        )
        # Chainstore compaction rides the snapshot cadence: once the
        # in-memory chain has pruned past the store's floor, migrate the
        # corresponding rows to the cold archive.  The snapshot above is
        # already durable, so a crash mid-compaction loses nothing.
        chain = self.runtime.cluster.longest_chain_node().chain
        floor = chain.first_retained_index
        if floor > 0:
            self.session.compact_to(
                min(floor, self.journaled_height), chain.checkpoints
            )


# -- run / resume --------------------------------------------------------------------


@dataclass
class PersistentRunResult:
    """Outcome of one durable run (or resume) invocation."""

    directory: Path
    completed: bool
    clock: float
    result: Optional[ExperimentResult] = None
    #: Simulation clock the run was restored from (resume only).
    resumed_from: Optional[float] = None
    #: Blocks re-mined after restore that were verified against the
    #: pre-crash journal (resume only).
    blocks_verified: int = 0

    @property
    def metrics(self) -> Optional[RunMetrics]:
        return None if self.result is None else self.result.metrics


def _open_session(
    directory: Path, persist: PersistConfig, fresh: bool
) -> PersistSession:
    journal_path = directory / JOURNAL_NAME
    if fresh and journal_path.exists():
        raise PersistError(
            f"{directory} already holds a run (journal exists); "
            "resume it or pick a fresh directory"
        )
    journal = RunJournal.open(journal_path, fsync_every=persist.fsync_every)
    store = ChainStore(directory / STORE_NAME)
    return PersistSession(directory, persist, journal, store)


def _finalize(session: PersistSession, runtime: SimRuntime) -> ExperimentResult:
    if session.verify_tail:
        unmatched = sorted(session.verify_tail)
        raise PersistError(
            "resumed run never re-mined journaled block(s) "
            f"{unmatched[:5]} — the journal and the replay disagree"
        )
    metrics = collect_metrics(runtime)
    reference = runtime.cluster.longest_chain_node()
    record = metrics_to_record(metrics, seed=runtime.spec.seed)
    session.journal.append(
        REC_COMPLETE,
        runtime.engine.now,
        {
            "height": reference.chain.height,
            "tip_hash": reference.chain.tip.current_hash,
            "chain_digest": reference.chain.chain_digest(),
        },
    )
    session.sync()
    session.store.set_meta("status", STATUS_COMPLETE)
    session.store.set_meta("final_chain_digest", reference.chain.chain_digest())
    _write_json_atomic(session.directory / METRICS_NAME, record)
    _write_json_atomic(
        session.directory / CHAIN_SUMMARY_NAME, store_chain_record(session.store)
    )
    manifest = read_manifest(session.directory)
    manifest["status"] = STATUS_COMPLETE
    manifest["completed_at_clock"] = runtime.engine.now
    manifest["final_tip_hash"] = reference.chain.tip.current_hash
    _write_json_atomic(session.directory / MANIFEST_NAME, manifest)
    return ExperimentResult(spec=runtime.spec, metrics=metrics, cluster=runtime.cluster)


def run_persistent(
    spec: ExperimentSpec,
    directory: PathLike,
    persist: Optional[PersistConfig] = None,
    stop_after_seconds: Optional[float] = None,
) -> PersistentRunResult:
    """Run one experiment durably inside ``directory``.

    ``stop_after_seconds`` (simulated) pauses the run cleanly after that
    much progress — the orderly form of interruption; a SIGKILL at any
    point is the disorderly form, and both resume identically.
    """
    persist = persist or PersistConfig()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / MANIFEST_NAME).exists():
        raise PersistError(
            f"{directory} already holds a run; resume it or pick a fresh directory"
        )
    spec_payload = spec_to_dict(spec)  # validates persistability up front
    session = _open_session(directory, persist, fresh=True)
    try:
        _write_json_atomic(
            directory / MANIFEST_NAME,
            {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "status": STATUS_RUNNING,
                "spec": spec_payload,
                "persist": asdict(persist),
            },
        )
        session.journal.append(
            REC_RUN_START,
            0.0,
            {
                "seed": spec.seed,
                "node_count": spec.node_count,
                "duration_seconds": spec.duration_seconds,
            },
        )
        runtime = build_runtime(spec)
        session.store.put_accounts(runtime.cluster.accounts)
        task = _Journaler(runtime, session, restored=False)
        task.flush()  # journals + stores the genesis block
        return _advance(task, stop_after_seconds)
    finally:
        session.close()


def _advance(
    task: _Journaler,
    stop_after_seconds: Optional[float],
    resumed_from: Optional[float] = None,
) -> PersistentRunResult:
    session, runtime = task.session, task.runtime
    completed = advance(
        runtime, stop_after_seconds, session.persist.journal_every_seconds, task
    )
    result: Optional[ExperimentResult] = None
    if completed:
        result = _finalize(session, runtime)
    else:
        if task.snapshot_clock != runtime.engine.now:
            task.snapshot()
        manifest = read_manifest(session.directory)
        manifest["paused_at_clock"] = runtime.engine.now
        _write_json_atomic(session.directory / MANIFEST_NAME, manifest)
    return PersistentRunResult(
        directory=session.directory,
        completed=completed,
        clock=runtime.engine.now,
        result=result,
        resumed_from=resumed_from,
        blocks_verified=session.blocks_verified,
    )


def _journal_chain_view(
    path: Path,
) -> Tuple[JournalRecovery, Dict[int, Tuple[str, int]], Set[Tuple[int, str]]]:
    """Recover the journal at ``path`` and, in the same scan, fold its
    block/reorg records into the final height → (hash, record position)
    view, plus the (height, hash) pairs a reorg cut from it and no later
    record restored; a block body is decoded again only by whoever reads
    it."""
    view: Dict[int, Tuple[str, int]] = {}
    superseded: Set[Tuple[int, str]] = set()

    def fold(position: int, record: JournalRecord) -> None:
        nonlocal view
        if record.type == REC_BLOCK:
            height, block_hash = int(record.payload["index"]), record.payload["hash"]
            view[height] = (block_hash, position)
            superseded.discard((height, block_hash))  # reorged back in
        elif record.type == REC_REORG:
            cut = int(record.payload["from"])
            superseded.update((h, entry[0]) for h, entry in view.items() if h >= cut)
            view = {h: entry for h, entry in view.items() if h < cut}

    recovery = recover_journal(path, visit=fold)
    return recovery, view, superseded


def resume_run(
    directory: PathLike,
    persist: Optional[PersistConfig] = None,
    stop_after_seconds: Optional[float] = None,
) -> PersistentRunResult:
    """Recover ``directory`` and drive the run to completion (or next pause).

    Recovery order: journal prefix (torn tail dropped), SQLite store
    catch-up from the journal, newest loadable snapshot (corrupt ones are
    skipped; none at all means a deterministic from-genesis replay), then
    continuation with every re-mined block verified against the journal.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("status") == STATUS_COMPLETE:
        raise PersistError(f"run in {directory} already completed; nothing to resume")
    spec = spec_from_dict(manifest["spec"])
    if persist is None:
        persist = PersistConfig(**manifest.get("persist", {}))

    recovery, journal_view, _ = _journal_chain_view(directory / JOURNAL_NAME)
    if recovery.corrupt:
        raise PersistError(
            f"journal in {directory} is corrupt mid-file ({recovery.reason}); "
            "refusing to resume — run `repro inspect` for details"
        )

    session = _open_session(directory, persist, fresh=False)
    try:
        # Store catch-up: the journal is write-ahead, so it is the truth.
        # Heights below the compaction floor already moved to the cold
        # archive; re-inserting them would undo the compaction.
        pruned_floor = session.store.pruned_below()
        for height in sorted(journal_view):
            if height < pruned_floor:
                continue
            block_hash, position = journal_view[height]
            stored = session.store.block_by_index(height)
            if stored is None or stored.current_hash != block_hash:
                payload = recovery.records[position].payload
                session.store.put_block(block_from_dict(payload["block"]))

        runtime, info, _skipped = restore_latest(directory, SimRuntime)
        if runtime is None:
            # No usable snapshot: deterministically replay from genesis.
            runtime = build_runtime(spec)
        task = _Journaler(runtime, session, restored=info is not None)
        resumed_from = 0.0 if info is None else info.clock
        session.verify_tail = {
            height: str(block_hash)
            for height, (block_hash, _) in journal_view.items()
            if height > task.journaled_height
        }
        return _advance(task, stop_after_seconds, resumed_from)
    finally:
        session.close()


# -- inspection ----------------------------------------------------------------------


@dataclass
class RunReport:
    """Health report for one run directory (``repro inspect``)."""

    directory: Path
    status: str
    journal_records: int = 0
    journal_height: int = -1
    torn_tail_bytes: int = 0
    dropped_records: int = 0
    store_height: int = -1
    store_blocks: int = 0
    store_metadata: int = 0
    store_tip: Optional[str] = None
    #: First block index still in the hot store (0 = never compacted).
    store_pruned_below: int = 0
    #: On-disk byte footprints, hot tier vs cold tier.
    journal_bytes: int = 0
    store_bytes: int = 0
    snapshot_bytes: int = 0
    archive_bytes: int = 0
    archive_blocks: int = 0
    archive_checkpoints: int = 0
    snapshots: List[SnapshotInfo] = field(default_factory=list)
    #: Recoverable oddities (torn tail, store behind journal) — resume
    #: handles these; listed for transparency.
    notes: List[str] = field(default_factory=list)
    #: Unrecoverable corruption — ``repro inspect`` exits non-zero.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def inspect_run(directory: PathLike) -> RunReport:
    """Examine a run directory without mutating anything.

    Checks the manifest, scans the journal once for its height → hash
    view without holding its records (the file is not truncated), verifies SQLite store integrity, cross-checks the store
    against the journal's final chain view, and reads every snapshot's
    state card.  Corruption that resume could not transparently heal
    lands in ``problems``; self-healing oddities land in ``notes``.
    """
    directory = Path(directory)
    report = RunReport(directory=directory, status="unknown")

    try:
        manifest = read_manifest(directory)
        report.status = str(manifest.get("status", "unknown"))
    except PersistError as error:
        report.problems.append(str(error))
        return report

    recovery, journal_view, superseded = _journal_chain_view(
        directory / JOURNAL_NAME
    )
    report.journal_records = len(recovery.records)
    report.torn_tail_bytes = recovery.torn_tail_bytes
    report.dropped_records = recovery.dropped_records
    if recovery.corrupt:
        report.problems.append(
            f"journal corrupt mid-file ({recovery.reason}); "
            f"{recovery.dropped_records} record(s) unreadable"
        )
    elif recovery.torn_tail_bytes:
        report.notes.append(
            f"journal has a torn final record ({recovery.torn_tail_bytes} bytes); "
            "resume drops it"
        )
    if journal_view:
        report.journal_height = max(journal_view)

    journal_path = directory / JOURNAL_NAME
    if journal_path.exists():
        report.journal_bytes = journal_path.stat().st_size

    archive = None
    archive_path = directory / ARCHIVE_NAME
    if archive_path.exists():
        try:
            archive = BlockArchive(archive_path)
            stats = archive.stats()
            report.archive_bytes = stats.bytes
            report.archive_blocks = stats.blocks
            report.archive_checkpoints = len(stats.checkpoints)
            if stats.torn_tail_bytes:
                report.notes.append(
                    f"archive had a torn final record "
                    f"({stats.torn_tail_bytes} bytes); truncated on open"
                )
            report.problems.extend(archive.verify_integrity())
        except PersistError as error:
            report.problems.append(f"cold archive unreadable: {error}")
            archive = None

    store_path = directory / STORE_NAME
    if store_path.exists():
        try:
            with ChainStore(store_path) as store:
                report.store_height = store.height()
                report.store_blocks = store.block_count()
                report.store_metadata = store.metadata_count()
                report.store_tip = store.tip_hash()
                report.store_pruned_below = store.pruned_below()
                report.store_bytes = store.footprint_bytes()
                report.problems.extend(store.verify_integrity())
                if report.store_pruned_below > 0 and (
                    archive is None
                    or archive.archived_below < report.store_pruned_below
                ):
                    held = 0 if archive is None else archive.archived_below
                    report.problems.append(
                        f"store is compacted below {report.store_pruned_below} "
                        f"but the archive only holds [0, {held})"
                    )
                for height in sorted(journal_view):
                    if height < report.store_pruned_below:
                        # Compacted out of the hot store; the archive walk
                        # above already re-verified the cold copy.
                        continue
                    stored = store.block_by_index(height)
                    journaled_hash = journal_view[height][0]
                    if stored is None:
                        report.notes.append(
                            f"store is missing journaled block {height}; "
                            "resume re-applies it"
                        )
                    elif (height, stored.current_hash) in superseded:
                        # The store commits in batches, so a kill can leave
                        # the row a later reorg replaced in the journal.
                        report.notes.append(
                            f"store holds block {height} from before a "
                            "journaled reorg; resume re-puts it"
                        )
                    elif stored.current_hash != journaled_hash:
                        report.problems.append(
                            f"store block {height} disagrees with the journal "
                            f"({stored.current_hash[:12]}… vs "
                            f"{journaled_hash[:12]}…)"
                        )
        except (sqlite3.DatabaseError, PersistError, ValidationError) as error:
            report.problems.append(f"chain store unreadable: {error}")
    else:
        report.problems.append(f"chain store {STORE_NAME} is missing")

    for path in snapshot_paths(directory):
        try:
            report.snapshots.append(inspect_snapshot(path))
        except PersistError as error:
            report.problems.append(str(error))
        try:
            report.snapshot_bytes += path.stat().st_size
        except OSError:
            pass

    if report.status == STATUS_RUNNING and not report.snapshots:
        report.notes.append(
            "no usable snapshot; resume replays deterministically from genesis"
        )
    return report
