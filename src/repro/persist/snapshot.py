"""Versioned, atomic snapshots of a running simulation.

A snapshot freezes the *whole* live run — chain state, every node's
:class:`~repro.core.storage.NodeStorage`, the event engine's clock, both
RNG streams, and the pending event queue — so a killed run restarts from
the last checkpoint instead of from genesis.

Format (one self-contained JSON file per snapshot):

* a **state card**: schema version, simulation clock, and what the
  runtime answers for itself — ``snapshot_height()``,
  ``snapshot_digest()`` and every node's storage from
  ``snapshot_storages()`` in the canonical
  :func:`~repro.core.serialization.storage_to_dict` wire format — a
  portable, inspectable view that never requires unpickling;
* a **continuation blob**: the zlib-compressed pickle of the full
  :class:`~repro.sim.runner.SimRuntime` or
  :class:`~repro.federation.runtime.FederationRuntime` object graph
  (CRC-protected), which is what actually resumes execution.  The
  runners guarantee this graph is picklable (module-level driver
  classes, no closures on the event queue).  Both resume verbs restore
  it through :func:`restore_latest`.

Invariants enforced here:

* **Atomicity** — snapshots are written to a temp file in the same
  directory, fsynced, then ``os.replace``d into place; a crash mid-write
  leaves either the old snapshot set or the new one, never a half file.
* **Versioning** — loads reject snapshots whose ``schema_version``
  differs from :data:`SNAPSHOT_SCHEMA_VERSION`.
* **Consistency** — after unpickling, the restored runtime must
  reproduce the state card's clock and chain digest exactly, or the
  snapshot is rejected; :func:`load_latest_snapshot` then falls back to
  the next-newest file.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import PersistError
from repro.obs import runtime as _obs
from repro.sim.runner import SimRuntime

PathLike = Union[str, Path]

#: Bumped on breaking changes to the snapshot layout.
SNAPSHOT_SCHEMA_VERSION = 4

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


@dataclass(frozen=True)
class SnapshotInfo:
    """Cheap, unpickle-free description of one snapshot file."""

    path: Path
    clock: float
    height: int
    chain_digest: str
    schema_version: int
    blob_bytes: int


def _snapshot_name(height: int, clock: float) -> str:
    # Height first, then millisecond clock: lexicographic order == age order.
    return f"{_SNAPSHOT_PREFIX}{height:08d}-{int(clock * 1000):014d}{_SNAPSHOT_SUFFIX}"


def _rng_digest(runtime: Any) -> str:
    engine = runtime.engine
    state = (engine.rng.getstate(), engine.np_rng.bit_generator.state)
    return format(zlib.crc32(pickle.dumps(state)) & 0xFFFFFFFF, "08x")


def snapshot_paths(directory: PathLike) -> List[Path]:
    """Snapshot files in a run directory, oldest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(
        p
        for p in root.iterdir()
        if p.name.startswith(_SNAPSHOT_PREFIX) and p.name.endswith(_SNAPSHOT_SUFFIX)
    )


def write_snapshot(directory: PathLike, runtime: Any, retain: int = 2) -> Path:
    """Atomically write one snapshot; prunes all but the newest ``retain``.

    Accepts a :class:`~repro.sim.runner.SimRuntime` or a
    :class:`~repro.federation.runtime.FederationRuntime` (whose card
    digest covers every cluster chain).
    """
    if retain < 1:
        raise ValueError("must retain at least one snapshot")
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    height = runtime.snapshot_height()
    digest = runtime.snapshot_digest()
    storages = runtime.snapshot_storages()
    blob = zlib.compress(pickle.dumps(runtime, protocol=pickle.HIGHEST_PROTOCOL))
    document: Dict[str, Any] = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "clock": runtime.engine.now,
        "height": height,
        "chain_digest": digest,
        "rng_digest": _rng_digest(runtime),
        "node_count": len(storages),
        "seed": runtime.spec.seed,
        "storages": storages,
        "blob_crc": format(zlib.crc32(blob) & 0xFFFFFFFF, "08x"),
        "blob_bytes": len(blob),
        "blob": base64.b64encode(blob).decode("ascii"),
    }
    target = root / _snapshot_name(height, runtime.engine.now)
    temp = target.with_name(target.name + ".tmp")
    with temp.open("w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    for stale in snapshot_paths(root)[:-retain]:
        stale.unlink(missing_ok=True)
    return target


def inspect_snapshot(path: PathLike) -> SnapshotInfo:
    """Read a snapshot's state card without unpickling the blob."""
    document = _read_document(path)
    return SnapshotInfo(
        path=Path(path),
        clock=float(document["clock"]),
        height=int(document["height"]),
        chain_digest=str(document["chain_digest"]),
        schema_version=int(document["schema_version"]),
        blob_bytes=int(document["blob_bytes"]),
    )


def _read_document(path: PathLike) -> Dict[str, Any]:
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise PersistError(f"snapshot {path} unreadable: {error}") from error
    if not isinstance(document, dict):
        raise PersistError(f"snapshot {path} is not an object")
    version = document.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise PersistError(
            f"snapshot {path} has schema v{version!r}, "
            f"this build reads v{SNAPSHOT_SCHEMA_VERSION}"
        )
    return document


def load_snapshot(path: PathLike) -> Tuple[Any, SnapshotInfo]:
    """Restore a runtime from one snapshot, verifying every invariant."""
    # Imported lazily: federation.runtime imports the obs layer, which
    # must stay importable without dragging persist back in.
    from repro.federation.runtime import FederationRuntime

    document = _read_document(path)
    try:
        blob = base64.b64decode(document["blob"].encode("ascii"))
    except (KeyError, ValueError) as error:
        raise PersistError(f"snapshot {path} blob undecodable: {error}") from error
    crc = format(zlib.crc32(blob) & 0xFFFFFFFF, "08x")
    if crc != document.get("blob_crc"):
        raise PersistError(f"snapshot {path} blob CRC mismatch")
    try:
        runtime = pickle.loads(zlib.decompress(blob))
    except Exception as error:  # pickle raises a zoo of types on corruption
        raise PersistError(f"snapshot {path} blob unpicklable: {error}") from error
    if not isinstance(runtime, (SimRuntime, FederationRuntime)):
        raise PersistError(f"snapshot {path} does not contain a known runtime")
    info = inspect_snapshot(path)
    if runtime.engine.now != info.clock:
        raise PersistError(
            f"snapshot {path} clock {info.clock} does not match "
            f"restored engine clock {runtime.engine.now}"
        )
    restored_digest = runtime.snapshot_digest()
    if restored_digest != info.chain_digest:
        raise PersistError(
            f"snapshot {path} chain digest mismatch after restore "
            f"(stored {info.chain_digest[:12]}…, got {restored_digest[:12]}…)"
        )
    if _rng_digest(runtime) != document.get("rng_digest"):
        raise PersistError(f"snapshot {path} RNG state digest mismatch")
    return runtime, info


def load_latest_snapshot(
    directory: PathLike,
) -> Tuple[Optional[Any], Optional[SnapshotInfo], List[str]]:
    """Restore from the newest valid snapshot, skipping corrupt ones.

    Returns ``(runtime, info, skipped)`` where ``skipped`` lists the
    reasons newer snapshots were rejected.  ``runtime`` is None when no
    usable snapshot exists (resume then replays from genesis).
    """
    skipped: List[str] = []
    for path in reversed(snapshot_paths(directory)):
        try:
            runtime, info = load_snapshot(path)
            return runtime, info, skipped
        except PersistError as error:
            skipped.append(str(error))
    return None, None, skipped


def restore_latest(
    directory: PathLike, kind: type
) -> Tuple[Optional[Any], Optional[SnapshotInfo], List[str]]:
    """:func:`load_latest_snapshot`, refusing a runtime of another kind
    (the wrong directory, not a corrupt file, so no fallback) and pointing
    observability at the restored one."""
    runtime, info, skipped = load_latest_snapshot(directory)
    if runtime is None:
        return None, None, skipped
    if not isinstance(runtime, kind):
        raise PersistError(
            f"snapshot {info.path} holds a {type(runtime).__name__}, "
            f"not a {kind.__name__}"
        )
    _obs.attach_runtime(runtime, runtime.engine.clock_reader())
    return runtime, info, skipped
