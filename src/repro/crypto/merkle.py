"""Merkle trees over block contents.

The paper's blocks carry a content section (metadata items plus storage
assignments).  We digest that section with a Merkle tree so a block header
commits to its contents and individual metadata items can be proven present
without shipping the whole block — useful for the data-access protocol where
a requester holds only headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import sha256

#: Domain-separation prefixes guard against second-preimage attacks where an
#: interior node is presented as a leaf.
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Digest of the empty tree (hash of a reserved sentinel).
EMPTY_ROOT = sha256(b"repro/merkle/empty")


def _leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF_PREFIX + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_PREFIX + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the leaf index and sibling digests bottom-up."""

    leaf_index: int
    siblings: Tuple[bytes, ...]


class MerkleTree:
    """Binary Merkle tree with duplicate-last-leaf padding at odd levels."""

    def __init__(self, leaves: Sequence[bytes]):
        self._leaf_data = [bytes(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = []
        self._build()

    def _build(self) -> None:
        if not self._leaf_data:
            self._levels = [[EMPTY_ROOT]]
            return
        level = [_leaf_hash(leaf) for leaf in self._leaf_data]
        self._levels = [level]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level = level + [level[-1]]
                self._levels[-1] = level
            level = [
                _node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)
            ]
            self._levels.append(level)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def root_hex(self) -> str:
        return self.root.hex()

    def __len__(self) -> int:
        return len(self._leaf_data)

    def prove(self, leaf_index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``leaf_index``."""
        if not self._leaf_data:
            raise IndexError("cannot prove inclusion in an empty tree")
        if not (0 <= leaf_index < len(self._leaf_data)):
            raise IndexError("leaf index out of range")
        siblings: List[bytes] = []
        index = leaf_index
        for level in self._levels[:-1]:
            sibling_index = index ^ 1
            # Duplicate-padding means the sibling always exists at this point.
            siblings.append(level[sibling_index])
            index //= 2
        return MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings))


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Convenience: the root digest of ``leaves`` without keeping the tree."""
    if not leaves:
        return EMPTY_ROOT
    return MerkleTree(leaves).root


def verify_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check that ``leaf`` is included under ``root`` per ``proof``."""
    digest = _leaf_hash(leaf)
    index = proof.leaf_index
    for sibling in proof.siblings:
        if index % 2 == 0:
            digest = _node_hash(digest, sibling)
        else:
            digest = _node_hash(sibling, digest)
        index //= 2
    return digest == root
