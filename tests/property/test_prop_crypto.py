"""Property-based tests for the crypto substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import hash_items, hash_to_int
from repro.crypto.keys import N, PrivateKey
from repro.crypto.merkle import merkle_root
from repro.crypto.signature import sign, verify
from tests.helpers import merkle_path, merkle_path_root

fields = st.one_of(
    st.text(max_size=30),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.binary(max_size=30),
)


class TestHashingProperties:
    @given(st.lists(fields, max_size=6))
    def test_hash_deterministic(self, items):
        assert hash_items(*items) == hash_items(*items)

    @given(st.lists(fields, min_size=1, max_size=6), st.lists(fields, min_size=1, max_size=6))
    def test_distinct_inputs_distinct_hashes(self, a, b):
        if a != b:
            assert hash_items(*a) != hash_items(*b)

    @given(st.binary(min_size=1, max_size=64))
    def test_hash_to_int_non_negative_and_bounded(self, data):
        value = hash_to_int(data)
        assert 0 <= value < 2 ** (8 * len(data))


class TestMerkleProperties:
    @given(st.lists(st.binary(max_size=20), min_size=1, max_size=40))
    def test_every_leaf_provable(self, leaves):
        root = merkle_root(leaves)
        for index, leaf in enumerate(leaves):
            assert merkle_path_root(leaf, index, merkle_path(leaves, index)) == root

    @given(st.lists(st.binary(max_size=20), min_size=2, max_size=20))
    def test_root_commits_to_order(self, leaves):
        if leaves != list(reversed(leaves)):
            forward = merkle_root(leaves)
            backward = merkle_root(list(reversed(leaves)))
            assert forward != backward

    @given(
        st.lists(st.binary(max_size=10), min_size=1, max_size=10),
        st.binary(min_size=1, max_size=10),
    )
    def test_foreign_leaf_never_verifies(self, leaves, foreign):
        if foreign in leaves:
            return
        root = merkle_root(leaves)
        for index in range(len(leaves)):
            assert merkle_path_root(foreign, index, merkle_path(leaves, index)) != root


class TestSignatureProperties:
    @settings(max_examples=10, deadline=None)  # pure-Python ECDSA is slow
    @given(st.binary(max_size=100), st.integers(min_value=1, max_value=N - 1))
    def test_sign_verify_round_trip(self, message, secret):
        private = PrivateKey(secret)
        public = private.public_key()
        assert verify(public, message, sign(private, message))

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=50), st.binary(max_size=50))
    def test_signature_does_not_transfer(self, message_a, message_b):
        if message_a == message_b:
            return
        private = PrivateKey(0xDEADBEEF)
        public = private.public_key()
        assert not verify(public, message_b, sign(private, message_a))
