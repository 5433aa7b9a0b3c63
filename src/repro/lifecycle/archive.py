"""The cold-archive tier: an append-only, CRC-checked block archive.

``archive.jsonl`` sits next to the run's journal and chain store.  Every
line is one archived block — a JSON object carrying the block index,
its hash, the block's stored bytes as base64 (``"block"``, the chain
store row's bytes, :func:`repro.core.serialization.block_to_bytes`), an
optional pinned checkpoint record, and a CRC-32 over the rest of the
line (the run journal's framing, :mod:`repro.lifecycle.framing`).
Compaction appends the bytes it read from the store without decoding
them; a fetch decodes them once and checks that they hash to the
record's hash.  Blocks are appended in strict index order, so the
archive is a contiguous prefix ``[0, archived_below)`` of the chain and
a ranged fetch is one seek and a sequential read.

Flush policy: a compaction batch (:meth:`BlockArchive.append_encoded`) is
written through one buffered handle and fsynced once, before it returns —
and the chain store only deletes a row *after* that return.  Crash
tolerance mirrors the journal: a torn final line (the process died
mid-batch) is truncated away on open and the compactor simply
re-archives from the surviving floor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.block import Block
from repro.core.errors import FormatVersionError, PersistError, ValidationError
from repro.core.serialization import block_from_bytes, block_to_bytes, verify_block_bytes
from repro.lifecycle.checkpoint import CheckpointRecord
from repro.lifecycle.framing import (
    _bytes_member,
    _check_version,
    _frame,
    _member_bytes,
    _scan,
    _unframe,
)
from repro.obs import runtime as _obs

PathLike = Union[str, Path]

#: Canonical archive file name inside a durable run directory.
ARCHIVE_NAME = "archive.jsonl"

#: Bumped on breaking changes to the record encoding.  v2: ``"block"``
#: is the block's stored bytes in base64, not its JSON.
ARCHIVE_FORMAT_VERSION = 2

#: One record to append: block index, block hash, the block's stored
#: bytes, and the checkpoint record pinned with it (or None).
EncodedBlock = Tuple[int, str, bytes, Optional[CheckpointRecord]]

__all__ = ["ARCHIVE_NAME", "ArchiveStats", "BlockArchive"]


@dataclass(frozen=True)
class ArchiveStats:
    """Cheap summary of one archive file (``repro archive inspect``)."""

    path: Path
    blocks: int
    bytes: int
    #: First index NOT in the archive (== blocks for a healthy archive).
    archived_below: int
    #: Pinned checkpoint records found in the archive, by index.
    checkpoints: Tuple[int, ...]
    #: Bytes of torn trailing data dropped on the last open (0 = clean).
    torn_tail_bytes: int


def _decode_record(line: bytes, expected_index: int) -> Dict[str, Any]:
    """Check one archive line (newline stripped) as the record of block
    ``expected_index``; returns its body."""
    body = _unframe(line, "archive", "idx")
    _check_version(body, ARCHIVE_FORMAT_VERSION, "archive", expected_index)
    if body.get("idx") != expected_index:
        raise PersistError(
            f"archive index break: expected {expected_index}, got {body.get('idx')}"
        )
    if not isinstance(body.get("block"), str):
        raise PersistError(f"archive record {expected_index} carries no block")
    return body


def _checkpoint_of(body: Dict[str, Any], position: int, path: Path) -> CheckpointRecord:
    """The checkpoint record pinned in the archive record at ``position``."""
    try:
        return CheckpointRecord.from_dict(body["checkpoint"])
    except (KeyError, TypeError, ValueError) as error:
        raise PersistError(
            f"archive {path} checkpoint record at {position} is invalid: {error}"
        ) from error


def _block_of(body: Dict[str, Any], index: int) -> Block:
    """The block an archive record body for ``index`` carries, decoded
    once from bytes that must hash to the record's hash."""
    data = _member_bytes(body["block"], f"archived block {index}")
    block = block_from_bytes(data, str(body.get("hash")))
    if block.index != index:
        raise PersistError(f"archived block {index} fails verification")
    return block


class BlockArchive:
    """Append/scan handle for one cold-archive file.

    Opening is one streaming pass (:func:`~repro.lifecycle.framing._scan`)
    that truncates any torn tail and keeps a positional array of record
    offsets, plus the record position of every pinned checkpoint — never
    the records.  A point fetch is one seek; a ranged fetch, an integrity
    walk or :meth:`checkpoints` opens the file once.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._load()

    # -- scanning ---------------------------------------------------------------

    def _load(self) -> None:
        #: Pinned checkpoint index → position of the record carrying it.
        self._checkpoints: Dict[int, int] = {}

        def keep(position: int, body: Dict[str, Any]) -> None:
            if body.get("checkpoint") is not None:
                record = _checkpoint_of(body, position, self.path)
                self._checkpoints[record.index] = position

        scan = _scan(self.path, _decode_record, keep)
        if isinstance(scan.error, FormatVersionError):
            raise FormatVersionError(f"archive {self.path}: {scan.error}") from scan.error
        if scan.corrupt:
            raise PersistError(
                f"archive {self.path} is corrupt mid-file: {scan.error}"
            ) from scan.error
        self._offsets = scan.offsets
        self._length = scan.valid_bytes
        self.torn_tail_bytes = scan.torn_tail_bytes
        if self.torn_tail_bytes:
            with open(self.path, "ab") as handle:
                handle.truncate(self._length)

    def _body_at(self, handle: BinaryIO, position: int) -> Dict[str, Any]:
        handle.seek(self._offsets[position])
        return _decode_record(handle.readline().rstrip(b"\n"), position)

    # -- accessors --------------------------------------------------------------

    @property
    def archived_below(self) -> int:
        """First block index the archive does NOT hold."""
        return len(self._offsets)

    @property
    def size_bytes(self) -> int:
        return self._length

    def checkpoints(self) -> Dict[int, CheckpointRecord]:
        """Pinned checkpoint records by index, read back from the file."""
        if not self._checkpoints:
            return {}
        with open(self.path, "rb") as handle:
            return {
                index: _checkpoint_of(self._body_at(handle, position), position, self.path)
                for index, position in self._checkpoints.items()
            }

    def stats(self) -> ArchiveStats:
        return ArchiveStats(
            path=self.path,
            blocks=len(self._offsets),
            bytes=self._length,
            archived_below=self.archived_below,
            checkpoints=tuple(sorted(self._checkpoints)),
            torn_tail_bytes=self.torn_tail_bytes,
        )

    # -- appending (compaction) -------------------------------------------------

    def append(
        self, block: Block, checkpoint: Optional[CheckpointRecord] = None
    ) -> None:
        """Archive one block (must be the next contiguous index)."""
        self.append_many([(block, checkpoint)])

    def append_many(
        self, records: Iterable[Tuple[Block, Optional[CheckpointRecord]]]
    ) -> None:
        """Archive a batch of ``(block, checkpoint)`` pairs with one fsync
        (:meth:`append_encoded` of each block's stored bytes)."""
        self.append_encoded(
            (block.index, block.current_hash, block_to_bytes(block), checkpoint)
            for block, checkpoint in records
        )

    def append_encoded(self, records: Iterable[EncodedBlock]) -> None:
        """Archive a batch of already-encoded blocks with one fsync.

        Compaction's path: the bytes go in as the chain store holds them,
        undecoded (the store checked them by hashing).  Blocks must
        continue the contiguous prefix.  Returns only after the whole
        batch is flushed and fsynced; if ``records`` (or a contiguity
        check) raises part-way, the blocks taken so far are still
        complete, fsynced and accounted lines — what that many single
        appends would have left.
        """
        blocks_before, length_before = self.archived_below, self._length
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            if handle.tell() != self._length:
                handle.truncate(self._length)
            try:
                for index, block_hash, data, checkpoint in records:
                    if index != self.archived_below:
                        raise PersistError(
                            f"archive append out of order: expected "
                            f"{self.archived_below}, got {index}"
                        )
                    body: Dict[str, Any] = {
                        "v": ARCHIVE_FORMAT_VERSION,
                        "idx": index,
                        "hash": block_hash,
                        "block": _bytes_member(data),
                    }
                    if checkpoint is not None:
                        body["checkpoint"] = checkpoint.to_dict()
                    encoded = _frame(body)
                    handle.write(encoded)
                    self._offsets.append(self._length)
                    if checkpoint is not None:
                        self._checkpoints[checkpoint.index] = index
                    self._length += len(encoded)
            finally:
                # Also on the way out of a failed batch: every line
                # accounted for above must be on disk before anyone acts
                # on ``archived_below``.
                handle.flush()
                os.fsync(handle.fileno())
                if _obs.is_enabled():
                    _obs.add(
                        "lifecycle.archived_blocks", self.archived_below - blocks_before
                    )
                    _obs.add("lifecycle.archive_bytes", self._length - length_before)

    # -- fetching ---------------------------------------------------------------

    def fetch(self, index: int) -> Block:
        """Read one archived block, verified by hashing its bytes."""
        if not 0 <= index < self.archived_below:
            raise PersistError(
                f"block {index} is not in the archive "
                f"(holds [0, {self.archived_below}))"
            )
        with open(self.path, "rb") as handle:
            return _block_of(self._body_at(handle, index), index)

    def fetch_range(self, start: int, stop: int) -> Iterator[Block]:
        """Yield archived blocks with ``start <= index < stop`` in order."""
        start, stop = max(start, 0), min(stop, self.archived_below)
        if start >= stop:
            return
        with open(self.path, "rb") as handle:
            # Records are contiguous on disk: one seek, then read on.
            handle.seek(self._offsets[start])
            for index in range(start, stop):
                body = _decode_record(handle.readline().rstrip(b"\n"), index)
                yield _block_of(body, index)

    # -- integrity ---------------------------------------------------------------

    def verify_integrity(self) -> List[str]:
        """Full cold-tier walk; returns human-readable problems (empty = ok).

        Re-hashes every archived body without decoding the block
        (:func:`~repro.core.serialization.verify_block_bytes`), re-checks
        parent linkage across the whole prefix, and re-reads every pinned
        checkpoint against the hash of the block it pins.  Seeks to each
        record's own offset, so one bad line is reported and the walk
        continues with the next.
        """
        problems: List[str] = []
        if not self._offsets:
            return problems
        #: The previous record's hash and timestamp (None after a bad one).
        parent: Optional[Tuple[str, float]] = None
        try:
            handle = open(self.path, "rb")
        except OSError as error:
            return [f"archive unreadable: {error}"]
        with handle:
            for index in range(len(self._offsets)):
                try:
                    body = self._body_at(handle, index)
                    block_hash = str(body.get("hash"))
                    data = _member_bytes(body["block"], f"archived block {index}")
                    previous_hash, timestamp = verify_block_bytes(data, index, block_hash)
                except (PersistError, ValidationError, OSError) as error:
                    problems.append(f"block {index} unreadable: {error}")
                    parent = None
                    continue
                if parent is not None and (
                    previous_hash != parent[0] or timestamp < parent[1]
                ):
                    problems.append(
                        f"block {index} does not link to archived parent"
                    )
                position = self._checkpoints.get(index)
                if position is not None:
                    try:
                        if position != index:
                            body = self._body_at(handle, position)
                        checkpoint = _checkpoint_of(body, position, self.path)
                    except (PersistError, OSError) as error:
                        problems.append(f"checkpoint record at {index} unreadable: {error}")
                    else:
                        if checkpoint.block_hash != block_hash:
                            problems.append(
                                f"checkpoint record at {index} pins a different block hash"
                            )
                parent = block_hash, timestamp
        return problems
