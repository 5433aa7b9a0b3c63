"""Hashing primitives used throughout the edge blockchain.

All protocol-level hashing in the system is SHA-256, matching the paper's
description ("hash function SHA-256 generates a 256-bit binary number",
Section V-A).  The helpers here normalise the many "hash this thing" call
sites into a small, well-tested surface:

* :func:`sha256` / :func:`sha256_hex` — raw digest over bytes.
* :func:`hash_items` — canonical digest over a sequence of heterogeneous
  fields (ints, strings, bytes), with unambiguous framing so that
  ``hash_items("ab", "c") != hash_items("a", "bc")``; the framed bytes
  themselves are :func:`hash_preimage` (what a stored block carries, see
  :mod:`repro.core.serialization`).
* :func:`hash_to_int` — interpret a digest as a big-endian integer, the
  operation behind the paper's ``POSHash mod M`` (Eq. 7).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

HashableField = Union[bytes, str, int]

#: Number of bits in a SHA-256 digest.
DIGEST_BITS = 256

#: Number of bytes in a SHA-256 digest.
DIGEST_SIZE = 32


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data`` as 32 raw bytes."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a 64-char lowercase hex string."""
    return hashlib.sha256(data).hexdigest()


def _encode_field(field: HashableField) -> bytes:
    """Encode one field with a type tag so distinct types never collide."""
    if isinstance(field, bytes):
        return b"B" + field
    if isinstance(field, str):
        return b"S" + field.encode("utf-8")
    if isinstance(field, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool fields are ambiguous; pass an int or str")
    if isinstance(field, int):
        # Sign-and-magnitude so negative values are representable.
        sign = b"-" if field < 0 else b"+"
        magnitude = abs(field)
        length = max(1, (magnitude.bit_length() + 7) // 8)
        return b"I" + sign + magnitude.to_bytes(length, "big")
    raise TypeError(f"unhashable field type: {type(field).__name__}")


def hash_preimage(*fields: HashableField) -> bytes:
    """The framed byte string :func:`hash_items` hashes.

    Each field is encoded with a one-byte type tag and prefixed with its
    4-byte big-endian length, so no concatenation of distinct field
    sequences can produce the same byte stream.

    The three exact types the protocol hashes are encoded inline — the
    same bytes :func:`_encode_field` produces; anything else (subclasses,
    ``bool``, unsupported types) goes through :func:`_encode_field`.
    """
    parts = []
    for field in fields:
        kind = type(field)
        if kind is str:
            encoded = b"S" + field.encode("utf-8")
        elif kind is int:
            if field < 0:
                sign, magnitude = b"I-", -field
            else:
                sign, magnitude = b"I+", field
            encoded = sign + magnitude.to_bytes(
                (magnitude.bit_length() + 7) // 8 or 1, "big"
            )
        elif kind is bytes:
            encoded = b"B" + field
        else:
            encoded = _encode_field(field)
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def hash_items(*fields: HashableField) -> bytes:
    """SHA-256 over :func:`hash_preimage` of ``fields``."""
    return hashlib.sha256(hash_preimage(*fields)).digest()


def hash_to_int(digest: bytes) -> int:
    """Interpret a digest as a big-endian unsigned integer.

    This is the reduction used by the PoS hit computation (Eq. 7): the
    256-bit ``POSHash`` becomes an integer which is then taken ``mod M``.
    """
    if not digest:
        raise ValueError("empty digest")
    return int.from_bytes(digest, "big")


def combine_hex(parts: Iterable[str]) -> str:
    """Hash an iterable of hex digests into one hex digest (order-sensitive)."""
    hasher = hashlib.sha256()
    for part in parts:
        raw = bytes.fromhex(part)
        hasher.update(len(raw).to_bytes(4, "big"))
        hasher.update(raw)
    return hasher.hexdigest()
