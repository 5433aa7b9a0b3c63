"""Cryptographic substrate: SHA-256 helpers, secp256k1 ECDSA, Merkle roots.

Everything is implemented from scratch on top of :mod:`hashlib` so the
blockchain core has a real signature scheme without external dependencies.
"""

from repro.crypto.hashing import (
    DIGEST_BITS,
    DIGEST_SIZE,
    hash_items,
    hash_to_int,
    sha256,
    sha256_hex,
)
from repro.crypto.keys import (
    GENERATOR,
    INFINITY,
    N as CURVE_ORDER,
    CurvePoint,
    PrivateKey,
    PublicKey,
    generate_keypair,
)
from repro.crypto.merkle import merkle_root
from repro.crypto.signature import Signature, sign, verify

__all__ = [
    "DIGEST_BITS",
    "DIGEST_SIZE",
    "sha256",
    "sha256_hex",
    "hash_items",
    "hash_to_int",
    "CurvePoint",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
    "GENERATOR",
    "INFINITY",
    "CURVE_ORDER",
    "Signature",
    "sign",
    "verify",
    "merkle_root",
]
