"""Durable runs: journaled execution, crash recovery, resume by replay.

This module glues the persistence primitives to the simulation runner:

* :func:`run_persistent` — run an experiment inside a run directory,
  journaling every mined block (write-ahead of the SQLite store) and
  finalising metrics on completion.  ``stop_after_seconds`` pauses
  cleanly mid-run (chunked long sweeps); a crash/kill at any point is
  equally recoverable.
* :func:`resume_run` — recover a run directory: journal tail recovery,
  store catch-up from the journal (the journal is the source of truth),
  a replay from genesis of the manifest's spec up to where the journal
  ends, checked against it, and continuation.

Both advance through :func:`repro.sim.runner.advance` in
``journal_every_seconds`` segments, as a plain run does in one go; what
is durable about the run is the callback after each segment, which
journals the blocks the reference chain gained and compacts the store
once the chain has pruned past the store's floor.  That callback lives
for one call and the runtime never refers to it: a durable run
processes the same engine events as the plain run of its spec.

Resume is replay.  The simulation is a closed system over its seeded
RNGs, so rebuilding the runtime from the manifest's spec and advancing
it re-mines the interrupted run's chain exactly.  The replay checks the
reference chain against the journal at every segment end up to the
resume point — each journaled block must come back with the same hash —
and any divergence aborts with :class:`~repro.core.errors.PersistError`
instead of silently forking history.  Past the resume point the run
journals as before, so *run → kill → resume* reproduces the
uninterrupted run byte for byte.  The persistence hooks never touch
simulation state or RNGs, so a durable run also produces exactly the
same metrics as a plain :func:`~repro.sim.runner.run_experiment`.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.errors import PersistError, ValidationError
from repro.core.serialization import block_from_bytes, block_to_bytes
from repro.lifecycle.archive import ARCHIVE_NAME, LEGACY_ARCHIVE_NAME, BlockArchive
from repro.lifecycle.framing import _bytes_member, _member_bytes
from repro.metrics.collector import RunMetrics
from repro.metrics.export import metrics_to_record, store_chain_record
from repro.obs import runtime as _obs
from repro.persist.chainstore import ChainStore
from repro.persist.journal import (
    REC_BLOCK,
    REC_COMPLETE,
    REC_REORG,
    REC_RUN_START,
    WRITE_BATCH,
    JournalRecord,
    JournalRecovery,
    RunJournal,
    recover_journal,
)
from repro.sim.runner import (
    ChurnSpec,
    ExperimentResult,
    ExperimentSpec,
    SimRuntime,
    advance,
    build_runtime,
    collect_metrics,
)

PathLike = Union[str, Path]

#: Bumped on breaking changes to the run-directory layout.  v2: the
#: manifest names its run ``kind``, and its ``persist`` block has no
#: snapshot fields (a run is resumed by replay alone).
MANIFEST_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
STORE_NAME = "chain.sqlite"
METRICS_NAME = "metrics.json"
CHAIN_SUMMARY_NAME = "chain_summary.json"

STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"

#: The run kind a manifest names; this build reads no other.
KIND_CLUSTER = "cluster"


@dataclass(frozen=True)
class PersistConfig:
    """Tunables of the durable-run machinery."""

    #: Simulated seconds per segment, the journal's flush cadence.
    journal_every_seconds: float = 30.0
    #: Journal records per ``os.fsync``.
    fsync_every: int = WRITE_BATCH

    def __post_init__(self) -> None:
        if self.journal_every_seconds <= 0:
            raise ValueError("journal interval must be positive")
        if self.fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")


# -- manifest (de)serialisation ------------------------------------------------------


@contextlib.contextmanager
def decoding(what: str) -> Iterator[None]:
    """Turn the ``KeyError``/``TypeError``/``ValueError`` of a malformed
    on-disk payload into a :class:`PersistError` naming ``what``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as error:
        raise PersistError(f"malformed {what}: {error}") from error


def config_from_dict(payload: Dict[str, Any]) -> SystemConfig:
    """A :class:`SystemConfig` from its ``asdict`` form (decode it under
    :func:`decoding`)."""
    fields = dict(payload)
    lifecycle = fields.get("lifecycle")
    if isinstance(lifecycle, dict):
        # ``asdict`` flattens the nested dataclass on the way out.
        fields["lifecycle"] = LifecycleSpec(**lifecycle)
    return SystemConfig(**fields)


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
    with decoding("experiment spec"):
        churn = payload["churn"]
        return ExperimentSpec(
            node_count=int(payload["node_count"]),
            config=config_from_dict(payload["config"]),
            seed=int(payload["seed"]),
            duration_minutes=payload["duration_minutes"],
            mobility_epoch_minutes=float(payload["mobility_epoch_minutes"]),
            churn=None if churn is None else ChurnSpec(**churn),
        )


# -- manifest ------------------------------------------------------------------------


def _write_json_atomic(path: Path, document: Dict[str, Any]) -> None:
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def start_manifest(directory: PathLike, fields: Dict[str, Any]) -> Path:
    """Claim a fresh run directory: write a manifest holding ``fields``,
    refusing a directory that already holds a run."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / MANIFEST_NAME).exists() or (directory / JOURNAL_NAME).exists():
        raise PersistError(
            f"{directory} already holds a run; resume it or pick a fresh directory"
        )
    _write_json_atomic(
        directory / MANIFEST_NAME,
        {"schema_version": MANIFEST_SCHEMA_VERSION, "kind": KIND_CLUSTER, **fields},
    )
    return directory


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    """The manifest of a run directory; a run of another kind is refused."""
    path = Path(directory) / MANIFEST_NAME
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise PersistError(f"{directory} is not a run directory: {error}") from error
    except ValueError as error:
        raise PersistError(f"manifest {path} is corrupt: {error}") from error
    if not isinstance(manifest, dict):
        raise PersistError(f"manifest {path} is not an object")
    version = manifest.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise PersistError(
            f"manifest {path} has schema v{version!r}, "
            f"this build reads v{MANIFEST_SCHEMA_VERSION}"
        )
    found = manifest.get("kind")
    if found != KIND_CLUSTER:
        raise PersistError(
            f"{directory} holds a run of kind {found!r}; this build does not "
            f"read it (only {KIND_CLUSTER!r} runs)"
        )
    return manifest


def resumable_manifest(directory: Path) -> Dict[str, Any]:
    """The manifest of a run that has not completed."""
    manifest = read_manifest(directory)
    if manifest.get("status") == STATUS_COMPLETE:
        raise PersistError(f"run in {directory} already completed; nothing to resume")
    return manifest


def complete_manifest(directory: Path, **fields: Any) -> None:
    """Record in the manifest that the run completed, with ``fields``."""
    manifest = read_manifest(directory)
    manifest.update(fields, status=STATUS_COMPLETE)
    _write_json_atomic(directory / MANIFEST_NAME, manifest)


# -- the session: everything holding OS resources ------------------------------------


class PersistSession:
    """Open handles on one run directory (journal, store, cold archive)."""

    def __init__(
        self, directory: PathLike, persist: PersistConfig, journal: RunJournal,
        store: ChainStore, archive: BlockArchive,
    ):
        self.directory = Path(directory)
        self.persist = persist
        self.journal = journal
        self.store = store
        self.archive = archive

    def compact_to(self, horizon: int, checkpoints=None) -> int:
        """Sync, then move store rows below ``horizon`` into the cold
        archive: the archive never holds a block the journal lacks."""
        self.sync()
        return self.store.compact(self.archive, horizon, checkpoints)

    def record_block(self, block, clock: float) -> None:
        self.journal.append(
            REC_BLOCK,
            clock,
            {
                "index": block.index,
                "hash": block.current_hash,
                "block": _bytes_member(block_to_bytes(block)),
            },
        )
        # Write-ahead: the journal hits the OS before the store row.
        self.store.put_block(block)

    def record_reorg(self, from_height: int, clock: float) -> None:
        self.journal.append(REC_REORG, clock, {"from": from_height})

    def sync(self) -> None:
        """Fsync the journal, then commit the store rows it has staged."""
        self.journal.sync()
        self.store.commit()

    def close(self) -> None:
        self.journal.close()
        self.store.close()


# -- the journal's view of the chain -------------------------------------------------

#: One journaled change to the reference chain, in journal order:
#: ``(clock, height, hash)`` for a block record and ``(clock, from,
#: None)`` for a reorg record.
_Entry = Tuple[float, int, Optional[str]]


@dataclass
class _JournalView:
    """A journal recovered and folded in one scan; a block body is
    decoded again only by whoever reads it."""

    recovery: JournalRecovery
    #: The chain the journal ends on: height → (hash, record position).
    chain: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    #: (height, hash) pairs a reorg cut from it and no later record restored.
    superseded: Set[Tuple[int, str]] = field(default_factory=set)
    #: Every block and reorg record, in order: what a replay is checked against.
    entries: List[_Entry] = field(default_factory=list)
    #: Clock of the last intact record (0 for an empty journal).
    last_clock: float = 0.0


def _read_journal(path: Path) -> _JournalView:
    view = _JournalView(JournalRecovery())

    def fold(position: int, record: JournalRecord) -> None:
        view.last_clock = record.clock
        with decoding(f"journal record {position}"):
            if record.type == REC_BLOCK:
                height = int(record.payload["index"])
                block_hash = str(record.payload["hash"])
                view.chain[height] = (block_hash, position)
                view.superseded.discard((height, block_hash))  # reorged back in
                view.entries.append((record.clock, height, block_hash))
            elif record.type == REC_REORG:
                cut = int(record.payload["from"])
                view.superseded.update(
                    (h, entry[0]) for h, entry in view.chain.items() if h >= cut
                )
                view.chain = {h: e for h, e in view.chain.items() if h < cut}
                view.entries.append((record.clock, cut, None))

    view.recovery = recover_journal(path, visit=fold)
    return view


# -- the segment callback ------------------------------------------------------------


class _Journaler:
    """The ``after_segment`` callbacks of a durable run's
    :func:`~repro.sim.runner.advance`.

    :meth:`flush` journals the blocks the longest chain gained since the
    last segment (with explicit reorg records), then compacts the store
    once the chain has pruned past the store's floor — a floor that moves
    only when a checkpoint prunes, so at most once per checkpoint.  A
    resume first replays to where the journal ends with :meth:`verify` in
    that slot, which checks the chain against the journal instead.

    Built for one :func:`run_persistent` / :func:`resume_run` call; the
    runtime never refers to it.
    """

    def __init__(
        self, runtime: SimRuntime, session: PersistSession, entries=()
    ):
        self.runtime = runtime
        self.session = session
        #: The chain the journal holds; -1 before genesis is journaled.
        self.journaled_height = -1
        self.journaled_hashes: Dict[int, str] = {}
        #: Journal entries the replay has not reached yet.
        self.pending: Deque[_Entry] = deque(entries)
        #: Journaled blocks the replay re-mined with the same hash.
        self.blocks_verified = 0

    def _forget_from(self, height: int) -> None:
        for stale in range(height, self.journaled_height + 1):
            self.journaled_hashes.pop(stale, None)
        self.journaled_height = min(self.journaled_height, height - 1)

    def _cap_pruning(self) -> None:
        # Pruning must never outrun the journal: any node may become the
        # reference chain, so cap every node's prune floor at the height
        # journaled — a fast-block burst within a segment then retains
        # its bodies until the next flush instead of dropping rows the
        # store has never seen.
        for node in self.runtime.cluster.nodes.values():
            node.chain.prune_floor_limit = self.journaled_height

    def verify(self) -> None:
        """Replay step: fold the journal entries up to the clock into the
        journaled chain, and check the replayed reference chain agrees."""
        chain = self.runtime.cluster.longest_chain_node().chain
        clock = self.runtime.engine.now
        folded = []
        while self.pending and self.pending[0][0] <= clock:
            _, height, block_hash = self.pending.popleft()
            if block_hash is None:
                self._forget_from(height)
            else:
                self.journaled_hashes[height] = block_hash
                self.journaled_height = height
                folded.append(height)
        top = self.journaled_height
        # Every segment end inside the journal was a flush, so there the
        # two chains are one; where the journal ends, a kill mid-flush may
        # have left only a prefix of the chain journaled.
        if top > chain.height or (self.pending and top < chain.height):
            raise PersistError(
                f"resumed run diverged from the journal at t={clock:g}s: the "
                f"journal holds height {top}, the replay reached {chain.height}"
            )
        # A reorg may have cut a folded block again; the top's hash covers
        # the lineage below it.
        folded = {height for height in folded if height in self.journaled_hashes}
        for height in sorted(folded | {top} - {-1}):
            if not chain.has_block(height):
                continue  # pruned: the top's hash covers it too
            journaled = self.journaled_hashes[height]
            remined = chain.block_at(height).current_hash
            if remined != journaled:
                raise PersistError(
                    f"resumed run diverged from the journal at block {height} "
                    f"(t={clock:g}s): journal has {journaled[:12]}…, replay "
                    f"re-mined {remined[:12]}…"
                )
        self.blocks_verified += len(folded)
        self._cap_pruning()

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
            self._forget_from(agree + 1)
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
        self._cap_pruning()
        horizon = min(floor, self.journaled_height)
        if horizon > self.session.store.pruned_below():
            self.session.compact_to(horizon, chain.checkpoints)


# -- run / resume --------------------------------------------------------------------


@dataclass
class PersistentRunResult:
    """Outcome of one durable run (or resume) invocation."""

    directory: Path
    completed: bool
    clock: float
    result: Optional[ExperimentResult] = None
    #: Simulation clock the interrupted run had reached (resume only).
    resumed_from: Optional[float] = None
    #: Journaled blocks the replay re-mined with the same hash (resume only).
    blocks_verified: int = 0

    @property
    def metrics(self) -> Optional[RunMetrics]:
        return None if self.result is None else self.result.metrics


def _open_session(directory: Path, persist: PersistConfig) -> PersistSession:
    # The archive first: one of an old format is refused before any
    # other handle is open.
    archive = BlockArchive(directory / ARCHIVE_NAME)
    journal = RunJournal.open(directory / JOURNAL_NAME, fsync_every=persist.fsync_every)
    store = ChainStore(directory / STORE_NAME)
    return PersistSession(directory, persist, journal, store, archive)


def _finalize(session: PersistSession, runtime: SimRuntime) -> ExperimentResult:
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
    complete_manifest(
        session.directory,
        completed_at_clock=runtime.engine.now,
        final_tip_hash=reference.chain.tip.current_hash,
    )
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
    directory = start_manifest(
        directory,
        {
            "status": STATUS_RUNNING,
            "spec": spec_to_dict(spec),  # validates persistability up front
            "persist": asdict(persist),
        },
    )
    session = _open_session(directory, persist)
    try:
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
        task = _Journaler(runtime, session)
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
        runtime, stop_after_seconds, session.persist.journal_every_seconds, task.flush
    )
    result: Optional[ExperimentResult] = None
    if completed:
        result = _finalize(session, runtime)
    else:
        session.sync()
        manifest = read_manifest(session.directory)
        manifest["paused_at_clock"] = runtime.engine.now
        _write_json_atomic(session.directory / MANIFEST_NAME, manifest)
    return PersistentRunResult(
        directory=session.directory,
        completed=completed,
        clock=runtime.engine.now,
        result=result,
        resumed_from=resumed_from,
        blocks_verified=task.blocks_verified,
    )


def _catch_up_store(store: ChainStore, journal: _JournalView) -> None:
    """Put back every journaled block the store lacks or holds another
    version of: the journal is write-ahead, so it is the truth.  Heights
    below the compaction floor already moved to the cold archive;
    re-inserting them would undo the compaction."""
    floor = store.pruned_below()
    for height in sorted(journal.chain):
        if height < floor:
            continue
        block_hash, position = journal.chain[height]
        stored = store.block_by_index(height)
        if stored is None or stored.current_hash != block_hash:
            payload = journal.recovery.records[position].payload
            try:
                data = _member_bytes(payload.get("block"), f"journaled block {height}")
                block = block_from_bytes(data, block_hash)
            except ValidationError as error:
                raise PersistError(f"journaled block {height} is damaged: {error}") from error
            store.put_block(block)


def resume_run(
    directory: PathLike, stop_after_seconds: Optional[float] = None
) -> PersistentRunResult:
    """Recover ``directory`` and drive the run to completion (or next pause).

    Recovery order: journal prefix (torn tail dropped), SQLite store
    catch-up from the journal, then a replay from genesis to the resume
    point — the manifest's ``paused_at_clock`` or the clock of the
    journal's last intact record, whichever is later — checked against
    the journal at every segment end, and continuation.
    ``stop_after_seconds`` counts from the resume point.
    """
    directory = Path(directory)
    manifest = resumable_manifest(directory)
    spec = spec_from_dict(manifest.get("spec"))
    with decoding(f"manifest {directory / MANIFEST_NAME}"):
        persist = PersistConfig(**manifest["persist"])
        paused_at = float(manifest.get("paused_at_clock", 0.0))

    journal = _read_journal(directory / JOURNAL_NAME)
    if journal.recovery.corrupt:
        raise PersistError(
            f"journal in {directory} is corrupt mid-file ({journal.recovery.reason}); "
            "refusing to resume — run `repro inspect` for details"
        )
    resume_at = max(paused_at, journal.last_clock)

    session = _open_session(directory, persist)
    try:
        _catch_up_store(session.store, journal)
        # The replay is recovery, not the run being observed: an observed
        # resume records only the segment it adds.
        with _obs.suspended():
            runtime = build_runtime(spec)
            task = _Journaler(runtime, session, journal.entries)
            advance(runtime, resume_at, persist.journal_every_seconds, task.verify)
            task.verify()  # the resume point itself, clock 0 included
        _obs.attach_runtime(runtime, runtime.engine.clock_reader())
        task.flush()  # journals what a kill mid-flush left out
        return _advance(task, stop_after_seconds, resumed_from=resume_at)
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
    #: Clock of the journal's last intact record: where a resume replays to
    #: (or the manifest's pause clock, if later).
    journal_clock: float = 0.0
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
    archive_bytes: int = 0
    archive_blocks: int = 0
    archive_checkpoints: int = 0
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
    view and last clock without holding its records (the file is not
    truncated), verifies SQLite store integrity, and cross-checks the
    store against the journal's final chain view.  Corruption that resume
    could not transparently heal lands in ``problems``; self-healing
    oddities land in ``notes``.
    """
    directory = Path(directory)
    report = RunReport(directory=directory, status="unknown")

    try:
        manifest = read_manifest(directory)
        report.status = str(manifest.get("status", "unknown"))
    except PersistError as error:
        report.problems.append(str(error))
        return report

    try:
        journal = _read_journal(directory / JOURNAL_NAME)
    except PersistError as error:
        report.problems.append(str(error))
        return report
    recovery, journal_view = journal.recovery, journal.chain
    report.journal_clock = journal.last_clock
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
    #: An archive that is there but unreadable is one problem, named
    #: here; the store check below must not report its absence again.
    archive_refused = False
    archive_path = directory / ARCHIVE_NAME
    if archive_path.exists() or (directory / LEGACY_ARCHIVE_NAME).exists():
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
            archive_refused = True

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
                if (
                    report.store_pruned_below > 0
                    and not archive_refused
                    and (
                        archive is None
                        or archive.archived_below < report.store_pruned_below
                    )
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
                    elif (height, stored.current_hash) in journal.superseded:
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

    return report
