"""Blocks of the edge blockchain.

Per Fig. 2 of the paper, a block carries, beyond the usual chain plumbing
(index, timestamp, previous hash, current hash):

* the **metadata items** packed since the previous block, each annotated
  with its storing nodes (Section IV-B),
* the **block storing nodes** — which nodes persist *this* block — plus the
  storing nodes of the *previous* block, so a chain can be fetched
  backwards hop by hop (Section IV-B),
* the **recent-block assignments** — extra nodes told to cache this block
  in their FIFO recent cache (Section IV-C),
* the **POSHash** used by the PoS lottery (Eq. 7) and the miner's claimed
  hit/target inputs so everyone can re-verify the win (Section V-A),
* the **B amendment** in force for the next inter-block race (Eq. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from repro.core.metadata import MetadataItem
from repro.crypto.hashing import hash_items, hash_preimage, sha256_hex
from repro.crypto.merkle import merkle_root

#: Serialized size of the block header fields (hashes, indices, PoS claim).
BLOCK_HEADER_BYTES = 256

#: The previous-hash value of the genesis block.
GENESIS_PREVIOUS_HASH = "0" * 64


@dataclass(frozen=True)
class Block:
    """One block.  Immutable; ``current_hash`` commits to everything else."""

    index: int
    timestamp: float
    previous_hash: str
    pos_hash: str  # POSHash(t) — Eq. 7 state for the *next* lottery
    miner: int  # node id of the winner (-1 for genesis)
    miner_address: str
    hit: int  # the miner's h_i, re-verifiable from pos_hash of parent
    target_b: float  # the B amendment used for this block's race
    metadata_items: Tuple[MetadataItem, ...] = ()
    storing_nodes: Tuple[int, ...] = ()  # who persists this block
    previous_storing_nodes: Tuple[int, ...] = ()  # who persists the parent
    recent_cache_nodes: Tuple[int, ...] = ()  # extra recent-block caching
    current_hash: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("block index cannot be negative")
        if self.timestamp < 0:
            raise ValueError("timestamp cannot be negative")
        if self.hit < 0:
            raise ValueError("hit cannot be negative")
        if not self.current_hash:
            object.__setattr__(self, "current_hash", self.compute_hash())

    # -- hashing ---------------------------------------------------------------------

    def content_root(self) -> bytes:
        """Merkle root over the packed metadata items."""
        leaves = [item.signing_payload() for item in self.metadata_items]
        return merkle_root(leaves)

    def header_bytes(self) -> bytes:
        """The block's hash preimage: header fields and the content root,
        length-framed by :func:`~repro.crypto.hashing.hash_preimage`.

        These are the bytes a stored block leads with
        (:func:`repro.core.serialization.block_to_bytes`), so a reader
        verifies a block by hashing what it read.  Memoised on the
        instance like :meth:`compute_hash`.
        """
        memo = self.__dict__.get("_header_memo")
        if memo is None:
            memo = hash_preimage(
                "block",
                self.index,
                str(self.timestamp),
                self.previous_hash,
                self.pos_hash,
                self.miner,
                self.miner_address,
                self.hit,
                str(self.target_b),
                self.content_root(),
                ",".join(map(str, self.storing_nodes)),
                ",".join(map(str, self.previous_storing_nodes)),
                ",".join(map(str, self.recent_cache_nodes)),
            )
            object.__setattr__(self, "_header_memo", memo)
        return memo

    def compute_hash(self) -> str:
        """The block hash: SHA-256 over :meth:`header_bytes`.

        Memoised on the instance: the fields are frozen, so the digest is
        a pure function of the object, and the simulator hands one
        ``Block`` by reference to every node of a cluster.  The memo is
        not a dataclass field — ``replace``, ``pickle``, ``deepcopy`` and
        the JSON codecs all build a new object without it, so whatever
        crossed a trust boundary is hashed again from its own fields.
        The one exception is the byte codec
        (:func:`~repro.core.serialization.block_from_bytes`): it accepts
        only the canonical encoding of the fields it decodes, so the
        header it read *is* the fields' preimage, memoised as read.
        """
        memo = self.__dict__.get("_hash_memo")
        if memo is None:
            memo = sha256_hex(self.header_bytes())
            object.__setattr__(self, "_hash_memo", memo)
        return memo

    def hash_is_valid(self) -> bool:
        return self.current_hash == self.compute_hash()

    def _placement_digest(self) -> bytes:
        """Digest of the one thing a ledger reads that the hash leaves out.

        The content root is built from ``signing_payload()``, which
        excludes each item's ``storing_nodes`` (the miner fills them in
        after the producer signed), yet ``ChainState.apply_block``
        credits exactly those nodes.  Two blocks with one ``current_hash``
        can therefore derive two ledgers; together with the hash this
        digest tells them apart.  Memoised like :meth:`compute_hash`.
        """
        memo = self.__dict__.get("_placement_memo")
        if memo is None:
            memo = hash_items(
                "placement",
                *(",".join(map(str, item.storing_nodes)) for item in self.metadata_items),
            )
            object.__setattr__(self, "_placement_memo", memo)
        return memo

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle/copy state: the declared fields only, never a memo."""
        state = dict(self.__dict__)
        for memo in ("_header_memo", "_hash_memo", "_placement_memo"):
            state.pop(memo, None)
        return state

    # -- properties --------------------------------------------------------------------

    @property
    def is_genesis(self) -> bool:
        return self.index == 0

    def wire_size(self) -> int:
        """Approximate serialised size (paper: average block < 10 KB)."""
        return (
            BLOCK_HEADER_BYTES
            + sum(item.wire_size() for item in self.metadata_items)
            + 4
            * (
                len(self.storing_nodes)
                + len(self.previous_storing_nodes)
                + len(self.recent_cache_nodes)
            )
        )

    def links_to(self, parent: "Block") -> bool:
        """Chain-linkage check against the claimed parent."""
        return (
            self.index == parent.index + 1
            and self.previous_hash == parent.current_hash
            and self.timestamp >= parent.timestamp
        )


def make_genesis(
    node_ids: Tuple[int, ...],
    initial_b: float,
    timestamp: float = 0.0,
) -> Block:
    """Build the genesis block.

    All participating nodes store the genesis block (every node keeps at
    least the last block, Section IV-C, and at genesis that is this one).
    The genesis POSHash seeds the first lottery.
    """
    pos_hash = hash_items("genesis-poshash", *sorted(node_ids)).hex()
    return Block(
        index=0,
        timestamp=timestamp,
        previous_hash=GENESIS_PREVIOUS_HASH,
        pos_hash=pos_hash,
        miner=-1,
        miner_address="",
        hit=0,
        target_b=initial_b,
        metadata_items=(),
        storing_nodes=tuple(sorted(node_ids)),
        previous_storing_nodes=(),
        recent_cache_nodes=(),
    )
