"""Record framing shared by the run journal and the cold archive.

``journal.jsonl`` and ``archive.jsonl`` are both sequences of
newline-terminated records.  A record line is the canonical JSON of one
object — sorted keys, compact separators, ASCII — with a ``"crc"`` member
holding the CRC-32 (eight lowercase hex digits) of *the line's bytes
without that member*.

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

Both files are opened the same way (:func:`_scan`): one streaming pass
through a buffered handle that checks every line and keeps an index of
the valid prefix — a byte offset and a line CRC per record — never the
file or the decoded records, so opening costs O(records) memory, not
O(file bytes).
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


@dataclass
class _Scan:
    """What one pass over a record file found: an index of its valid
    prefix and a verdict on whatever follows it."""

    #: Byte offset of every valid record, in file order.
    offsets: array = field(default_factory=lambda: array("q"))
    #: CRC-32 of every valid record's line (newline included), so a line
    #: rewritten after the scan is told from the one that was checked.
    crcs: array = field(default_factory=lambda: array("I"))
    #: Byte length of the valid prefix (safe truncation point).
    valid_bytes: int = 0
    #: Bytes of the torn final record (or, after mid-file damage, of the
    #: unterminated data after the last newline).
    torn_tail_bytes: int = 0
    #: Lines dropped from the first rejected one on (mid-file damage only).
    dropped_records: int = 0
    #: True when a rejected line is not the last — more than an
    #: interrupted final write was lost — or is of another format version.
    corrupt: bool = False
    #: Why the rejected line was rejected (None for a clean file or an
    #: unterminated final line).
    error: Optional[PersistError] = None


def _scan(
    path: Union[str, Path],
    decode: Callable[[bytes, int], _T],
    keep: Optional[Callable[[int, _T], None]] = None,
) -> _Scan:
    """Stream the record file at ``path`` once and index its valid prefix.

    ``decode(line, position)`` checks one line (newline stripped) as the
    record at ``position`` and raises :class:`PersistError` if it is not;
    ``keep(position, decoded)``, if given, then sees each valid record in
    file order — its exceptions propagate.  The prefix ends at the first
    line that is unterminated or that ``decode`` rejects, and:

    * a missing or empty file is an empty, clean one;
    * an unterminated final line, or a terminated one ``decode`` rejects,
      is a **torn tail** — an interrupted last write — counted in
      ``torn_tail_bytes``;
    * a rejected line with anything after it is **mid-file corruption**:
      ``corrupt`` is set and every line from it on is counted in
      ``dropped_records``;
    * so is a line of another format version (:class:`FormatVersionError`),
      wherever it is: a whole record another build wrote is not a torn
      write, and must never be truncated away.
    """
    scan = _Scan()
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return scan
    with handle:
        while True:
            line = handle.readline()
            if not line:
                break
            if not line.endswith(b"\n"):
                scan.torn_tail_bytes = len(line)
                break
            position = len(scan.offsets)
            try:
                decoded = decode(line[:-1], position)
            except PersistError as error:
                scan.error = error
                newlines, trailing = _rest(handle)
                if newlines or trailing or isinstance(error, FormatVersionError):
                    scan.corrupt = True
                    scan.dropped_records = 1 + newlines
                    scan.torn_tail_bytes = trailing
                else:
                    scan.torn_tail_bytes = len(line)
                break
            if keep is not None:
                keep(position, decoded)
            scan.offsets.append(scan.valid_bytes)
            scan.crcs.append(zlib.crc32(line))
            scan.valid_bytes += len(line)
    return scan


def _rest(handle: BinaryIO) -> Tuple[int, int]:
    """Newlines in what is left of ``handle``, and the bytes after the last."""
    newlines = trailing = 0
    for chunk in iter(lambda: handle.read(1 << 16), b""):
        count = chunk.count(b"\n")
        if count:
            newlines += count
            trailing = len(chunk) - chunk.rfind(b"\n") - 1
        else:
            trailing += len(chunk)
    return newlines, trailing
