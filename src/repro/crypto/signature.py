"""ECDSA signatures over secp256k1.

Metadata items carry the producer's signature so any node can validate data
integrity via the producer's public key (Section III-B-2 of the paper).  The
signer here uses an RFC-6979-style deterministic nonce (HMAC-free simplified
derivation) so signing is reproducible in seeded simulations while remaining
secure against nonce reuse across distinct messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import hash_items, sha256
from repro.crypto.keys import GENERATOR, N, PrivateKey, PublicKey, _generator_combination


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature (r, s), both scalars in [1, N)."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if not (1 <= self.r < N and 1 <= self.s < N):
            raise ValueError("signature components out of range")

    def encode(self) -> bytes:
        """Fixed-width 64-byte encoding (32-byte r ‖ 32-byte s)."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    def hex(self) -> str:
        return self.encode().hex()

    @classmethod
    def decode(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise ValueError("signature must be 64 bytes")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))

    @classmethod
    def from_hex(cls, text: str) -> "Signature":
        return cls.decode(bytes.fromhex(text))


def _message_scalar(message: bytes) -> int:
    """Map a message to a scalar: SHA-256 then reduce mod N (z in ECDSA)."""
    return int.from_bytes(sha256(message), "big") % N


def _deterministic_nonce(private: PrivateKey, message: bytes, attempt: int) -> int:
    """Deterministic per-(key, message) nonce in [1, N).

    A simplified RFC-6979 construction: the nonce is a hash of the private
    scalar, the message digest, and a retry counter, rejection-sampled into
    the valid scalar range.  Distinct messages yield independent nonces, so
    the classic nonce-reuse key recovery does not apply.
    """
    counter = 0
    while True:
        digest = hash_items(private.encode(), sha256(message), attempt, counter)
        candidate = int.from_bytes(digest, "big")
        if 1 <= candidate < N:
            return candidate
        counter += 1


def sign(private: PrivateKey, message: bytes) -> Signature:
    """Sign ``message`` with ``private``; deterministic for a given input."""
    z = _message_scalar(message)
    attempt = 0
    while True:
        k = _deterministic_nonce(private, message, attempt)
        point = GENERATOR * k
        assert point.x is not None
        r = point.x % N
        if r == 0:
            attempt += 1
            continue
        s = (pow(k, -1, N) * (z + r * private.secret)) % N
        if s == 0:
            attempt += 1
            continue
        # Canonical low-s form (as Bitcoin mandates) so signatures are unique.
        if s > N // 2:
            s = N - s
        return Signature(r, s)


def verify(public: PublicKey, message: bytes, signature: Signature) -> bool:
    """Return True iff ``signature`` is valid for ``message`` under ``public``."""
    z = _message_scalar(message)
    w = pow(signature.s, -1, N)  # Signature guarantees 1 <= s < N, N prime
    u1 = (z * w) % N
    u2 = (signature.r * w) % N
    point = _generator_combination(u1, u2, public.point)
    if point.is_infinity:
        return False
    assert point.x is not None
    return point.x % N == signature.r
