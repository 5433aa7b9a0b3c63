"""Node accounts and addresses.

"Each node has its private and public keys for identification purposes.
Keys then generate an account of that node.  Each account is unique and
associated with each node and has a unique address (hash value) satisfying
a certain pattern.  The account address can be generated from public keys
but not in reverse." — Section III-A.

The address is the SHA-256 of the compressed public key, ground to satisfy
a vanity pattern (a fixed prefix nibble) by appending a grinding counter —
the same mechanism Bitcoin-style vanity addresses use, kept cheap here
(one nibble) because the pattern is an identification aid, not a
proof-of-work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.hashing import hash_items
from repro.crypto.keys import PrivateKey, PublicKey, generate_keypair
from repro.crypto.signature import Signature, sign, verify

#: Addresses must start with this hex nibble ("satisfying a certain pattern").
ADDRESS_PREFIX = "e"

#: Address length in hex characters (truncated SHA-256).
ADDRESS_HEX_LENGTH = 40


#: Canonical per-node accounts, keyed by ``(simulation_seed, node_id)``.
#: Bounded so pathological seed sweeps can't grow it without limit; a
#: full memo is simply cleared (re-derivation is always correct).
_FOR_NODE_MEMO: Dict[Tuple[int, int], "Account"] = {}
_FOR_NODE_MEMO_MAX = 4096


def derive_address(public_key: PublicKey) -> str:
    """Derive the account address from a public key (one-way).

    Grinds a counter until the hash starts with :data:`ADDRESS_PREFIX`; the
    counter is deterministic, so the same key always yields the same
    address and anyone can re-derive and check it.
    """
    counter = 0
    while True:
        digest = hash_items(public_key.encode(), counter)
        candidate = digest.hex()[:ADDRESS_HEX_LENGTH]
        if candidate.startswith(ADDRESS_PREFIX):
            return candidate
        counter += 1


def address_is_valid(address: str) -> bool:
    """Syntactic address check (pattern + length + hex)."""
    if len(address) != ADDRESS_HEX_LENGTH:
        return False
    if not address.startswith(ADDRESS_PREFIX):
        return False
    try:
        int(address, 16)
    except ValueError:
        return False
    return True


def verify_address(address: str, public_key: PublicKey) -> bool:
    """Check that ``address`` really derives from ``public_key``."""
    return address_is_valid(address) and derive_address(public_key) == address


@dataclass(frozen=True)
class Account:
    """A node's identity: key pair plus derived address."""

    private_key: PrivateKey
    public_key: PublicKey
    address: str

    @classmethod
    def create(cls, seed: Optional[Tuple["str | int | bytes", ...]] = None) -> "Account":
        """Create an account, deterministically when ``seed`` is given."""
        private, public = generate_keypair(seed)
        return cls(private_key=private, public_key=public, address=derive_address(public))

    @classmethod
    def for_node(cls, simulation_seed: int, node_id: int) -> "Account":
        """The canonical deterministic account for a simulated node.

        Memoised on ``(simulation_seed, node_id)``: derivation is a pure
        function of the key, and the account is a frozen value object, so
        a cache hit is observably identical to re-deriving — same keys,
        same address, same digests.  A derivation is ≈0.4 ms, which no
        single run notices; the memo stays for suites that rebuild the
        same seeded clusters hundreds of times (≈3 % of the tier-1
        tests' wall time, measured in CHANGELOG.md, PR 15).
        """
        key = (simulation_seed, node_id)
        account = _FOR_NODE_MEMO.get(key)
        if account is None:
            if len(_FOR_NODE_MEMO) >= _FOR_NODE_MEMO_MAX:
                _FOR_NODE_MEMO.clear()
            account = cls.create(seed=("repro/account", simulation_seed, node_id))
            _FOR_NODE_MEMO[key] = account
        return account

    def sign(self, message: bytes) -> Signature:
        return sign(self.private_key, message)

    def verify_own(self, message: bytes, signature: Signature) -> bool:
        return verify(self.public_key, message, signature)

    def __repr__(self) -> str:  # keep private key out of logs
        return f"Account(address={self.address!r})"
