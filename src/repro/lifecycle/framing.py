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
in order to check it.  A line that is not canonical is therefore a CRC
mismatch, whatever it parses to.
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect
from typing import Any, Dict

from repro.core.errors import PersistError

#: Canonical JSON text of a value (what ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))`` returns, without building an encoder per call).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _crc_of(data: bytes) -> str:
    return format(zlib.crc32(data), "08x")


def _frame(body: Dict[str, Any]) -> bytes:
    """One record line for ``body`` (string keys, no ``"crc"`` among them)."""
    keys = sorted(body)
    members = [f"{_canonical(key)}:{_canonical(body[key])}" for key in keys]
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
