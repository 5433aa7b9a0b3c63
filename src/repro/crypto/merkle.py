"""Merkle roots over block contents.

A block header commits to its metadata items through the Merkle root of
their signing preimages (:meth:`repro.core.block.Block.content_root`).
The tree pads an odd level by repeating its last digest, and leaves and
interior nodes hash under distinct one-byte prefixes, so an interior
digest cannot pose as a leaf.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.hashing import sha256

#: Domain-separation prefixes guard against second-preimage attacks where an
#: interior node is presented as a leaf.
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Digest of the empty tree (hash of a reserved sentinel).
EMPTY_ROOT = sha256(b"repro/merkle/empty")


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """The root digest of ``leaves``: fold each level pairwise to one."""
    if not leaves:
        return EMPTY_ROOT
    level = [sha256(_LEAF_PREFIX + leaf) for leaf in leaves]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            sha256(_NODE_PREFIX + level[i] + level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]
