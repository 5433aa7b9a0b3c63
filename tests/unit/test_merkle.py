"""Unit tests for Merkle roots.

No protocol ships inclusion proofs, so ``repro.crypto.merkle`` keeps only
the root.  The proof tests build each leaf's authentication path from
the leaves (``tests.helpers.merkle_path``) and check that it recomputes
``merkle_root``: a path does so only if the root is the domain-separated,
duplicate-padded binary tree the module describes.
"""

import pytest

from repro.crypto.merkle import EMPTY_ROOT, merkle_root
from tests.helpers import merkle_leaf, merkle_node, merkle_path, merkle_path_root


class TestMerkleTree:
    def test_empty_tree_root(self):
        assert merkle_root([]) == EMPTY_ROOT

    def test_single_leaf_proof(self):
        assert merkle_path_root(b"only", 0, merkle_path([b"only"], 0)) == merkle_root([b"only"])

    def test_root_deterministic(self):
        leaves = [b"a", b"b", b"c"]
        assert merkle_root(leaves) == merkle_root(list(leaves))

    def test_root_changes_with_leaf(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"a", b"c"])

    def test_root_changes_with_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 16, 33])
    def test_all_proofs_verify(self, count):
        leaves = [f"leaf-{i}".encode() for i in range(count)]
        root = merkle_root(leaves)
        for i, leaf in enumerate(leaves):
            assert merkle_path_root(leaf, i, merkle_path(leaves, i)) == root

    def test_proof_for_wrong_leaf_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        assert merkle_path_root(b"x", 1, merkle_path(leaves, 1)) != merkle_root(leaves)

    def test_proof_wrong_index_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        assert merkle_path_root(b"b", 2, merkle_path(leaves, 1)) != merkle_root(leaves)

    def test_proof_against_other_root_fails(self):
        path = merkle_path([b"a", b"b"], 0)
        assert merkle_path_root(b"a", 0, path) != merkle_root([b"c", b"d"])

    def test_merkle_root_helper(self):
        """The root bytes are pinned: block hashes commit to them."""
        pinned = {
            0: "b40cd6f2ea40c166007aecd0ca53c6496cabc0b0cdd235f6e90c65ef364dc3ff",
            1: "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7",
            2: "60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc",
            3: "2e07059fb7dc51ca9951054f3e4bd7174279e77d3fc17bb29acaff97f302974b",
            5: "aaee56ce5e352748dece183c190368682111de3b1b62c410086ee2d21e25b8a6",
        }
        for count, root in pinned.items():
            assert merkle_root([f"leaf-{i}".encode() for i in range(count)]).hex() == root

    def test_duplicate_padding_no_forgery(self):
        # [a, b, c] pads to [a, b, c, c]; the root of [a, b, c, c] as an
        # explicit leaf list must EQUAL (padding semantics), but a path
        # for index 2 recomputes the root only for the leaf there.
        leaves = [b"a", b"b", b"c"]
        root = merkle_root(leaves)
        assert root == merkle_root([b"a", b"b", b"c", b"c"])
        assert merkle_path_root(b"c", 2, merkle_path(leaves, 2)) == root
        assert merkle_path_root(b"b", 2, merkle_path(leaves, 2)) != root

    def test_leaf_interior_domain_separation(self):
        # Interior digests presented as leaves give another root.
        left, right = merkle_node(merkle_leaf(b"a"), merkle_leaf(b"b")), merkle_node(merkle_leaf(b"c"), merkle_leaf(b"d"))
        assert merkle_root([b"a", b"b", b"c", b"d"]) == merkle_node(left, right)
        assert merkle_root([left, right]) != merkle_node(left, right)
