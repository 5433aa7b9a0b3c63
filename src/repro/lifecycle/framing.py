"""Record framing of the run journal, and the scan it shares with the
cold archive.

``journal.jsonl`` is a sequence of newline-terminated records.  A record
line is the canonical JSON of one object — sorted keys, compact
separators, ASCII — with a ``"crc"`` member holding the CRC-32 (eight
lowercase hex digits) of *the line's bytes without that member*.

Canonical JSON is compositional: an object's text is its members' texts
joined in key order.  So the writer encodes every member once and slots
``"crc"`` in where the sort puts it, and the reader checks the CRC over
the bytes it read with the member cut out; neither re-encodes a record
in order to check it.  A line that is not canonical is therefore
a CRC mismatch, whatever it parses to.

Binary members — a block's stored bytes
(:func:`repro.core.serialization.block_to_bytes`) — travel as base64
text (:func:`_bytes_member` / :func:`_member_bytes`).  A record of
another format version is refused (:func:`_check_version`), never taken
for damage.

The journal and the cold archive (binary records,
:mod:`repro.lifecycle.archive`) are opened by the same loop
(:func:`_scan`), parameterised by how one record is read from the file
(:func:`_read_line` here): one streaming pass through a buffered handle
that checks every record and keeps an index of the valid prefix — a
byte offset per record — never the file or the decoded records, so
opening costs O(records) memory, not O(file bytes).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import zlib
from array import array
from bisect import bisect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.core.errors import FormatVersionError, PersistError, ValidationError

_T = TypeVar("_T")

#: Canonical JSON text of a value (what ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))`` returns, without building an encoder per call).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _crc_of(data: bytes) -> str:
    return format(zlib.crc32(data), "08x")


def _member(value: Any) -> str:
    """Canonical JSON of one member's value.  An exact ``int`` or finite
    ``float`` is its ``repr`` — what the encoder writes for it — without
    building an encoder per number."""
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return _canonical(value)


def _frame(body: Dict[str, Any]) -> bytes:
    """One record line for ``body`` (string keys, no ``"crc"`` among them)."""
    keys = sorted(body)
    members = [f"{_canonical(key)}:{_member(body[key])}" for key in keys]
    crc = _crc_of(("{" + ",".join(members) + "}").encode("ascii"))
    members.insert(bisect(keys, "crc"), f'"crc":"{crc}"')
    return ("{" + ",".join(members) + "}\n").encode("ascii")


def _crc_matches(line: bytes, crc: str) -> bool:
    """Whether ``line`` minus its ``"crc":"<crc>"`` member has that CRC.

    A quote inside a JSON string is escaped, so these bytes can only be
    an object member — but an object nested in the payload may hold the
    same member, hence every occurrence is tried.
    """
    if not crc.isascii():
        return False
    member = b'"crc":"' + crc.encode("ascii") + b'"'
    start = line.find(member)
    while start >= 0:
        end = start + len(member)
        if line[start - 1 : start] == b",":
            rest = line[: start - 1] + line[end:]
        elif line[end : end + 1] == b",":
            rest = line[:start] + line[end + 1 :]
        else:
            rest = line[:start] + line[end:]
        if _crc_of(rest) == crc:
            return True
        start = line.find(member, start + 1)
    return False


def _unframe(line: bytes, what: str, key: str) -> Dict[str, Any]:
    """Parse one record line (newline stripped) and check its CRC.

    Returns the record without its ``"crc"`` member.  ``what`` names the
    file and ``key`` the record's position member in error messages.
    """
    try:
        body = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise PersistError(f"{what} record is not valid JSON: {error}") from error
    if not isinstance(body, dict):
        raise PersistError(f"{what} record is not an object")
    crc = body.pop("crc", None)
    if not (isinstance(crc, str) and _crc_matches(line, crc)):
        raise PersistError(f"{what} record CRC mismatch ({key} {body.get(key)})")
    return body


def _bytes_member(data: bytes) -> str:
    """``data`` as a record member: base64 text."""
    return base64.b64encode(data).decode("ascii")


def _member_bytes(value: Any, what: str) -> bytes:
    """The bytes a base64 record member holds (ValidationError if none).

    Another spelling of the same bytes (padding bits set) decodes to the
    same bytes, so it changes nothing a reader acts on."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} is not base64 text")
    try:
        return base64.b64decode(value, validate=True)
    except (binascii.Error, ValueError) as error:
        raise ValidationError(f"{what} is not base64: {error}") from error


def _check_version(body: Dict[str, Any], version: int, what: str, position: int) -> None:
    """Refuse a record of another format: one another build wrote (an
    integer ``"v"``) raises :class:`FormatVersionError`, anything else is
    damage."""
    found = body.get("v")
    if found == version and type(found) is int:
        return
    if type(found) is int:
        raise FormatVersionError(
            f"{what} record {position} has format v{found}; this build reads v{version}"
        )
    raise PersistError(f"unsupported {what} format {found!r}")


#: Reads the next record at a handle's position: the bytes it spans as
#: far as the file holds them (empty at the end of the file), and the
#: record those bytes frame — None when the file ends inside it.  It
#: raises :class:`PersistError` for bytes that frame no record.
Reader = Callable[[BinaryIO], Tuple[bytes, Optional[bytes]]]


def _read_line(handle: BinaryIO) -> Tuple[bytes, Optional[bytes]]:
    """A JSON-lines record: one line, the newline stripped from the record."""
    line = handle.readline()
    return line, line[:-1] if line.endswith(b"\n") else None


@dataclass
class _Scan:
    """What one pass over a record file found: an index of its valid
    prefix and a verdict on whatever follows it."""

    #: Byte offset of every valid record, in file order.
    offsets: array = field(default_factory=lambda: array("q"))
    #: Byte length of the valid prefix (safe truncation point).
    valid_bytes: int = 0
    #: Bytes of the torn final record (0 after mid-file damage).
    torn_tail_bytes: int = 0
    #: True when a rejected record is not the last — more than an
    #: interrupted final write was lost — or is of another format version.
    corrupt: bool = False
    #: Why the rejected record was rejected (None for a clean file or a
    #: final record the file ends inside).
    error: Optional[PersistError] = None


def _scan(
    path: Union[str, Path],
    decode: Callable[[bytes, int], _T],
    keep: Optional[Callable[[int, _T], None]] = None,
    read: Reader = _read_line,
    start: int = 0,
) -> _Scan:
    """Stream the record file at ``path`` once and index its valid prefix.

    Records are read with ``read`` from byte ``start`` on (what precedes
    it is a header the caller checked).  ``decode(record, position)``
    checks one record as the record at ``position`` and raises
    :class:`PersistError` if it is not; ``keep(position, decoded)``, if
    given, then sees each valid record in file order — its exceptions
    propagate.  The prefix ends at the first record that the file ends
    inside or that ``read`` or ``decode`` rejects, and:

    * a missing or empty file is an empty, clean one;
    * a final record the file ends inside, or a rejected one with
      nothing after it, is a **torn tail** — an interrupted last write —
      counted in ``torn_tail_bytes``;
    * a rejected record with anything after it is **mid-file
      corruption**: ``corrupt`` is set;
    * so is a record of another format version (:class:`FormatVersionError`),
      wherever it is: a whole record another build wrote is not a torn
      write, and must never be truncated away.
    """
    scan = _Scan(valid_bytes=start)
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return _Scan()
    with handle:
        handle.seek(start)
        while True:
            position = len(scan.offsets)
            try:
                raw, record = read(handle)
                if record is None:
                    scan.torn_tail_bytes = len(raw)
                    break
                decoded = decode(record, position)
            except PersistError as error:
                scan.error = error
                if handle.read(1) or isinstance(error, FormatVersionError):
                    scan.corrupt = True
                else:
                    scan.torn_tail_bytes = handle.tell() - scan.valid_bytes
                break
            if keep is not None:
                keep(position, decoded)
            scan.offsets.append(scan.valid_bytes)
            scan.valid_bytes += len(raw)
    return scan
