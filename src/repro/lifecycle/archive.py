"""The cold-archive tier: an append-only, CRC-checked binary block archive.

``archive.bin`` sits next to the run's journal and chain store.  It
starts with a 12-byte header — the magic ``REPROARC`` and the format
version, a 4-byte big-endian integer — and then holds one record per
archived block, every integer 4 bytes big-endian::

    length      bytes from the hash through the checkpoint
    length CRC  CRC-32 of the length's 4 bytes
    hash        the block's 32-byte SHA-256
    size        length of the block's stored bytes
    block       the stored bytes, as the chain store row holds them
                (:func:`repro.core.serialization.block_to_bytes`)
    checkpoint  the pinned checkpoint record as canonical JSON, or nothing
    CRC         CRC-32 of the record from its length on

Compaction appends the bytes it read from the store without decoding
them; a fetch decodes them once and checks that they hash to the
record's hash and hold the record's index.  Blocks are appended in
strict index order, so the archive is a contiguous prefix
``[0, archived_below)`` of the chain and a ranged fetch is one seek and
a sequential read.  The length carries its own CRC, so that damage to it
is never mistaken for a record the file ends inside.

Opening reads lengths and checks CRCs; it decodes no block.  It shares
the journal's scan loop (:func:`repro.lifecycle.framing._scan`) and its
verdicts: a missing or empty file is an empty archive, a final record
the file ends inside (or whose CRC fails, with nothing after it) is a
torn tail truncated away, damage with anything after it is corruption,
and an archive of another format — the v1 and v2 JSON-lines
``archive.jsonl`` among them, also beside an ``archive.bin`` — is refused
with :class:`FormatVersionError`, never truncated.

Flush policy: a compaction batch (:meth:`BlockArchive.append_encoded`) is
written through one buffered handle and fsynced once, before it returns —
and the chain store only deletes a row *after* that return.  A torn
final record (the process died mid-batch) is truncated away on open and
the compactor simply re-archives from the surviving floor.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

from repro.core.block import Block
from repro.core.errors import FormatVersionError, PersistError, ValidationError
from repro.core.serialization import block_from_bytes, block_to_bytes, verify_block_bytes
from repro.lifecycle.checkpoint import CheckpointRecord
from repro.lifecycle.framing import _canonical, _scan, _Scan
from repro.obs import runtime as _obs

PathLike = Union[str, Path]

#: Canonical archive file name inside a durable run directory.
ARCHIVE_NAME = "archive.bin"

#: Where format v1 and v2 archives (JSON lines) were written.
LEGACY_ARCHIVE_NAME = "archive.jsonl"

#: Bumped on breaking changes to the record encoding.  v2: ``"block"``
#: is the block's stored bytes in base64, not its JSON.  v3: binary
#: records after a header, not JSON lines.
ARCHIVE_FORMAT_VERSION = 3

_MAGIC = b"REPROARC"
_U32 = struct.Struct(">I")
_HEADER = _MAGIC + _U32.pack(ARCHIVE_FORMAT_VERSION)
#: Length and length CRC; then the hash and the size of the block bytes.
_HEAD = struct.Struct(">II")
_HASH_AT, _SIZE_AT, _BLOCK_AT = 8, 40, 44
#: Hash and size, the least a record's length covers.
_MIN_LENGTH = _BLOCK_AT - _HEAD.size
#: Largest record length written or read: a bound on what a damaged
#: length can make a reader allocate.
_MAX_LENGTH = 1 << 26

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


def _encode_record(block_hash: str, data: bytes, checkpoint: Optional[CheckpointRecord]) -> bytes:
    """The archive record of one block's stored bytes (layout above)."""
    tail = b"" if checkpoint is None else _canonical(checkpoint.to_dict()).encode("ascii")
    length = _MIN_LENGTH + len(data) + len(tail)
    if length > _MAX_LENGTH:
        raise PersistError(f"archive record of {length} bytes is over {_MAX_LENGTH}")
    digest = bytes.fromhex(block_hash)
    if len(digest) != _SIZE_AT - _HASH_AT:
        raise PersistError(f"archive record hash {block_hash!r} is not a SHA-256")
    length_bytes = _U32.pack(length)
    record = b"".join(
        (length_bytes, _U32.pack(zlib.crc32(length_bytes)), digest, _U32.pack(len(data)), data, tail)
    )
    return record + _U32.pack(zlib.crc32(record))


def _read_record(handle: BinaryIO) -> Tuple[bytes, Optional[bytes]]:
    """The next record (the scan's reader): its bytes, and None when the
    file ends inside it.  A length that fails its CRC or bounds frames no
    record and raises :class:`PersistError`."""
    head = handle.read(_HEAD.size)
    if len(head) < _HEAD.size:
        return head, None
    length, check = _HEAD.unpack(head)
    if zlib.crc32(head[:4]) != check or not _MIN_LENGTH <= length <= _MAX_LENGTH:
        raise PersistError(
            f"archive record at byte {handle.tell() - _HEAD.size} has a damaged length"
        )
    record = head + handle.read(length + 4)
    return record, record if len(record) == _HEAD.size + length + 4 else None


def _check_record(record: bytes, position: int) -> Tuple[str, bytes, bytes]:
    """Check one record's CRC and block size as the record at
    ``position``; returns its block hash, its block bytes and its pinned
    checkpoint bytes (empty when it pins none)."""
    end = len(record) - 4
    if end < _BLOCK_AT:
        raise PersistError(f"archive record {position} is cut short")
    if zlib.crc32(record[:end]) != _U32.unpack_from(record, end)[0]:
        raise PersistError(f"archive record {position} CRC mismatch")
    (size,) = _U32.unpack_from(record, _SIZE_AT)
    if not 0 < size <= end - _BLOCK_AT:
        raise PersistError(f"archive record {position} carries no block")
    at = _BLOCK_AT + size
    return record[_HASH_AT:_SIZE_AT].hex(), record[_BLOCK_AT:at], record[at:end]


def _checkpoint_of(tail: bytes, position: int, path: Path) -> CheckpointRecord:
    """The checkpoint record pinned in the archive record at ``position``."""
    try:
        return CheckpointRecord.from_dict(json.loads(tail))
    except (KeyError, TypeError, ValueError, RecursionError) as error:
        raise PersistError(
            f"archive {path} checkpoint record at {position} is invalid: {error}"
        ) from error


def _refuse_json_lines(path: Path) -> NoReturn:
    """Refuse the JSON-lines archive at ``path`` (formats v1 and v2),
    naming the version its first record carries."""
    with open(path, "rb") as handle:
        line = handle.readline(1 << 20)
    try:
        version = json.loads(line).get("v")
    except (ValueError, AttributeError, RecursionError):
        version = None
    if type(version) is not int:
        version = "1 or v2"
    raise FormatVersionError(
        f"archive {path} has format v{version}; this build reads v{ARCHIVE_FORMAT_VERSION}"
    )


def _check_header(found: bytes, path: Path) -> None:
    """Refuse a file that does not start with this format's header: one
    another build wrote raises :class:`FormatVersionError`, naming its
    version, and anything else is damage."""
    if found.startswith(b"{"):
        _refuse_json_lines(path)
    if found[: len(_MAGIC)] == _MAGIC and len(found) == len(_HEADER):
        raise FormatVersionError(
            f"archive {path} has format v{_U32.unpack_from(found, len(_MAGIC))[0]}; "
            f"this build reads v{ARCHIVE_FORMAT_VERSION}"
        )
    raise PersistError(f"archive {path} is not a block archive")


class BlockArchive:
    """Append/scan handle for one cold-archive file.

    Opening checks the header, then is one streaming pass
    (:func:`~repro.lifecycle.framing._scan`) over the records' lengths and
    CRCs that truncates any torn tail and keeps a positional array of
    record offsets, plus the record position of every pinned checkpoint —
    never the records.  A ranged fetch, an integrity walk or
    :meth:`checkpoints` opens the file once.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        legacy = self.path.parent / LEGACY_ARCHIVE_NAME
        if legacy != self.path and legacy.exists():
            _refuse_json_lines(legacy)
        self._load()

    # -- scanning ---------------------------------------------------------------

    def _load(self) -> None:
        #: Pinned checkpoint index → position of the record carrying it.
        self._checkpoints: Dict[int, int] = {}
        try:
            with open(self.path, "rb") as handle:
                found = handle.read(len(_HEADER))
        except FileNotFoundError:
            found = b""
        if found != _HEADER and not _HEADER.startswith(found):
            _check_header(found, self.path)

        def keep(position: int, parts: Tuple[str, bytes, bytes]) -> None:
            _, _, tail = parts
            if tail:
                record = _checkpoint_of(tail, position, self.path)
                self._checkpoints[record.index] = position

        if found == _HEADER:
            scan = _scan(self.path, _check_record, keep, _read_record, len(_HEADER))
        else:  # missing, empty, or a header the process died writing
            scan = _Scan(torn_tail_bytes=len(found))
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

    def _read_at(self, handle: BinaryIO, position: int, seek: bool = True) -> bytes:
        """Record ``position``, the bytes its offsets span: read from its
        offset, or from the handle's position when ``seek`` is False."""
        offsets = self._offsets
        start = offsets[position]
        stop = offsets[position + 1] if position + 1 < len(offsets) else self._length
        if seek:
            handle.seek(start)
        return handle.read(stop - start)

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
                index: _checkpoint_of(
                    _check_record(self._read_at(handle, position), position)[2],
                    position,
                    self.path,
                )
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
        complete, fsynced and accounted records — what that many single
        appends would have left.
        """
        blocks_before, length_before = self.archived_below, self._length
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            if handle.tell() != self._length:
                handle.truncate(self._length)
            try:
                if not self._length:
                    handle.write(_HEADER)
                    self._length = len(_HEADER)
                for index, block_hash, data, checkpoint in records:
                    if index != self.archived_below:
                        raise PersistError(
                            f"archive append out of order: expected "
                            f"{self.archived_below}, got {index}"
                        )
                    encoded = _encode_record(block_hash, data, checkpoint)
                    handle.write(encoded)
                    self._offsets.append(self._length)
                    if checkpoint is not None:
                        self._checkpoints[checkpoint.index] = index
                    self._length += len(encoded)
            finally:
                # Also on the way out of a failed batch: every record
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

    def fetch_range(self, start: int, stop: int) -> Iterator[Block]:
        """Yield archived blocks with ``start <= index < stop`` in order,
        each verified by hashing its bytes and by its index."""
        start, stop = max(start, 0), min(stop, self.archived_below)
        if start >= stop:
            return
        with open(self.path, "rb") as handle:
            # Records are contiguous on disk: one seek, then read on.
            handle.seek(self._offsets[start])
            for index in range(start, stop):
                block_hash, stored, _ = _check_record(
                    self._read_at(handle, index, seek=False), index
                )
                block = block_from_bytes(stored, block_hash)
                if block.index != index:
                    raise PersistError(f"archived block {index} fails verification")
                yield block

    # -- integrity ---------------------------------------------------------------

    def verify_integrity(self) -> List[str]:
        """Full cold-tier walk; returns human-readable problems (empty = ok).

        Re-hashes every archived body without decoding the block
        (:func:`~repro.core.serialization.verify_block_bytes`), re-checks
        parent linkage across the whole prefix, and re-reads every pinned
        checkpoint against the hash of the block it pins.  Reads the
        records in order, each by the offsets the open found, so one bad
        record is reported and the walk continues with the next; it
        seeks only for a checkpoint pinned in another block's record.
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
            # Whether the handle is at the next record in order: not after
            # a failed read, nor after reading a checkpoint elsewhere.
            in_order = False
            for index in range(len(self._offsets)):
                try:
                    record = self._read_at(handle, index, seek=not in_order)
                    in_order = True
                    block_hash, data, tail = _check_record(record, index)
                    previous_hash, timestamp = verify_block_bytes(data, index, block_hash)
                except (OSError, PersistError, ValidationError) as error:
                    problems.append(f"block {index} unreadable: {error}")
                    in_order = False
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
                            in_order = False
                            tail = _check_record(self._read_at(handle, position), position)[2]
                        checkpoint = _checkpoint_of(tail, position, self.path)
                    except (OSError, PersistError) as error:
                        problems.append(f"checkpoint record at {index} unreadable: {error}")
                    else:
                        if checkpoint.block_hash != block_hash:
                            problems.append(
                                f"checkpoint record at {index} pins a different block hash"
                            )
                parent = block_hash, timestamp
        return problems
