"""The cross-cluster metadata directory replicated across super-peers.

ElfStore-style federation (PAPERS.md): each edge cluster keeps its full
metadata on its own chain, while the fog tier carries only a compact
*summary* per cluster — a bloom filter over the data ids the cluster's
reference chain has packed, the checkpoint digest, and coarse stake /
storage / fairness aggregates.  Super-peers exchange these summaries by
gossip; a cross-cluster lookup consults the blooms to shortlist candidate
clusters and then verifies against the candidate's actual chain, so bloom
false positives cost one extra probe, never a wrong answer.

Everything here is deterministic: the bloom hashes with
salted SHA-256 (no Python ``hash()`` randomisation), and replicas merge
by ``(version, cluster_id)`` order so any gossip delivery order converges
to the same state — the property the federated determinism test pins.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.crypto.hashing import hash_items

#: Bits per expected item; 10 bits/item ≈ 1 % false-positive rate at the
#: optimal hash count, plenty for a shortlist-then-verify directory.
BLOOM_BITS_PER_ITEM = 10

#: Minimum filter size so tiny clusters don't degenerate to all-ones.
BLOOM_MIN_BITS = 256


class BloomFilter:
    """A deterministic bloom filter over string keys.

    Hashing is salted SHA-256 — independent of interpreter hash
    randomisation — so two runs (or two super-peers) building a filter
    over the same key set produce bit-identical filters.
    """

    def __init__(self, size_bits: int, hash_count: int):
        if size_bits < 8:
            raise ValueError("bloom filter needs at least 8 bits")
        if hash_count < 1:
            raise ValueError("bloom filter needs at least one hash")
        self.size_bits = size_bits
        self.hash_count = hash_count
        self._bits = bytearray((size_bits + 7) // 8)
        self._count = 0

    @classmethod
    def sized_for(cls, expected_items: int) -> "BloomFilter":
        """A filter sized for ``expected_items`` at ~1 % false positives."""
        bits = max(BLOOM_MIN_BITS, expected_items * BLOOM_BITS_PER_ITEM)
        hashes = max(1, round(bits / max(1, expected_items) * math.log(2)))
        return cls(size_bits=bits, hash_count=min(hashes, 16))

    def _positions(self, key: str) -> Iterable[int]:
        for salt in range(self.hash_count):
            digest = hashlib.sha256(f"bloom:{salt}:{key}".encode("utf-8")).digest()
            yield int.from_bytes(digest[:8], "big") % self.size_bits

    def add(self, key: str) -> None:
        for position in self._positions(key):
            self._bits[position // 8] |= 1 << (position % 8)
        self._count += 1

    def might_contain(self, key: str) -> bool:
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(key)
        )

    __contains__ = might_contain

    @property
    def count(self) -> int:
        """Keys added (not deduplicated)."""
        return self._count

    def fill_ratio(self) -> float:
        """Fraction of bits set — a saturation warning light."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.size_bits

    def digest(self) -> str:
        """Content digest used in summary/replica digests."""
        return hash_items(
            "bloom", self.size_bits, self.hash_count, bytes(self._bits).hex()
        ).hex()[:16]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BloomFilter)
            and self.size_bits == other.size_bits
            and self.hash_count == other.hash_count
            and self._bits == other._bits
        )


@dataclass(frozen=True)
class ClusterSummary:
    """One cluster's entry in the federation directory.

    ``version`` increases with every refresh by the cluster's home
    super-peer; replicas keep the highest version they have seen, so the
    entry converges regardless of gossip order.
    """

    cluster_id: int
    version: int
    updated_at: float  # simulation time of the home-peer refresh
    height: int
    chain_digest: str
    checkpoint_height: int
    checkpoint_digest: str
    item_count: int  # metadata items on the reference chain
    bloom: BloomFilter
    stake_top_share: float
    storage_used_fraction: float
    free_slots: int
    fairness_max: float
    #: The cluster's general-information consensus head, if Raft runs.
    raft_leader: Optional[int] = None
    raft_term: int = 0
    #: Gateway attestation: the home cluster's gateway signs the canonical
    #: summary body (:meth:`attestation_payload`) so no super-peer can
    #: forge an entry for a cluster it does not gate.
    attestor_public_key_hex: str = ""
    attestation_hex: str = ""

    def attestation_payload(self) -> bytes:
        """The canonical summary body the gateway key signs.

        Covers every content field — the attestation fields themselves
        excluded — with the same fixed float formatting as
        :meth:`digest`, so signer and verifier hash identical bytes.
        """
        return hash_items(
            "cluster-summary-body",
            self.cluster_id,
            self.version,
            f"{self.updated_at:.6f}",
            self.height,
            self.chain_digest,
            self.checkpoint_height,
            self.checkpoint_digest,
            self.item_count,
            self.bloom.digest(),
            f"{self.stake_top_share:.9f}",
            f"{self.storage_used_fraction:.9f}",
            self.free_slots,
            f"{self.fairness_max:.9f}" if math.isfinite(self.fairness_max) else "inf",
            -1 if self.raft_leader is None else self.raft_leader,
            self.raft_term,
        )

    def digest(self) -> str:
        """Deterministic content digest of the whole entry."""
        return hash_items(
            "cluster-summary",
            self.attestation_payload().hex(),
            self.attestor_public_key_hex,
            self.attestation_hex,
        ).hex()[:32]


class DirectoryReplica:
    """One super-peer's copy of the directory: cluster id → summary."""

    def __init__(self) -> None:
        self.entries: Dict[int, ClusterSummary] = {}

    def merge(self, summary: ClusterSummary) -> bool:
        """Adopt ``summary`` if it is newer; returns True when adopted."""
        current = self.entries.get(summary.cluster_id)
        if current is not None and current.version >= summary.version:
            return False
        self.entries[summary.cluster_id] = summary
        return True

    def merge_all(self, summaries: Iterable[ClusterSummary]) -> int:
        return sum(1 for summary in summaries if self.merge(summary))

    def staleness(self, now: float, cluster_count: int) -> float:
        """Age of the most out-of-date entry (clusters never heard of age
        from time zero)."""
        worst = 0.0
        for cluster_id in range(cluster_count):
            entry = self.entries.get(cluster_id)
            age = now if entry is None else now - entry.updated_at
            worst = max(worst, age)
        return worst

    def candidates_for(self, data_id: str, exclude: Optional[int] = None) -> List[int]:
        """Clusters whose bloom might hold ``data_id``, in cluster-id order."""
        return [
            cluster_id
            for cluster_id in sorted(self.entries)
            if cluster_id != exclude and data_id in self.entries[cluster_id].bloom
        ]

    def digest(self) -> str:
        """Deterministic digest over the replica (for determinism checks)."""
        fields: List[object] = ["directory"]
        for cluster_id in sorted(self.entries):
            fields.append(self.entries[cluster_id].digest())
        return hash_items(*fields).hex()[:32]
