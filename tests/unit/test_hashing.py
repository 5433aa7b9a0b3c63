"""Unit tests for repro.crypto.hashing."""

import hashlib

import pytest

from repro.crypto.hashing import (
    DIGEST_SIZE,
    combine_hex,
    hash_items,
    hash_to_int,
    sha256,
    sha256_hex,
)


class TestSha256:
    def test_matches_hashlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_hex_matches_hashlib(self):
        assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()

    def test_digest_size(self):
        assert len(sha256(b"")) == DIGEST_SIZE

    def test_empty_input(self):
        assert sha256(b"") == hashlib.sha256(b"").digest()


class TestHashItems:
    def test_deterministic(self):
        assert hash_items("a", 1, b"x") == hash_items("a", 1, b"x")

    def test_framing_prevents_concatenation_collisions(self):
        assert hash_items("ab", "c") != hash_items("a", "bc")

    def test_type_tags_prevent_cross_type_collisions(self):
        assert hash_items("1") != hash_items(1)
        assert hash_items(b"x") != hash_items("x")

    def test_order_matters(self):
        assert hash_items("a", "b") != hash_items("b", "a")

    def test_negative_integers(self):
        assert hash_items(-5) != hash_items(5)

    def test_zero_and_empty(self):
        assert hash_items(0) != hash_items("")
        assert hash_items(0) != hash_items(b"")

    def test_large_integers(self):
        big = 2**300
        assert hash_items(big) != hash_items(big + 1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            hash_items(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            hash_items(3.14)

    def test_no_fields(self):
        # Hash of nothing is still a valid digest and deterministic.
        assert hash_items() == hash_items()
        assert len(hash_items()) == DIGEST_SIZE


class TestHashToInt:
    def test_round_trip(self):
        digest = bytes.fromhex("ff" * 32)
        assert hash_to_int(digest) == 2**256 - 1

    def test_zero(self):
        assert hash_to_int(b"\x00" * 32) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hash_to_int(b"")

    def test_big_endian(self):
        assert hash_to_int(b"\x01\x00") == 256


class TestHelpers:
    def test_combine_hex_order_sensitive(self):
        a, b = sha256_hex(b"a"), sha256_hex(b"b")
        assert combine_hex([a, b]) != combine_hex([b, a])

    def test_combine_hex_deterministic(self):
        parts = [sha256_hex(b"a"), sha256_hex(b"b")]
        assert combine_hex(parts) == combine_hex(parts)
