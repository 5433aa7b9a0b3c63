"""Differential and known-answer tests for the Jacobian secp256k1 kernel.

``CurvePoint.__mul__`` accumulates in Jacobian coordinates and multiples
of the generator come out of a fixed-base table; the affine
double-and-add it replaced lives on as
:func:`tests.helpers.reference_scalar_mult`.  A group element has exactly
one affine form, so the two must agree on every coordinate — and every
key, address and signature must be the bytes the old kernel produced
(``tests/data/crypto_vectors.json``, recorded at the last commit that
had it).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.account import Account
from repro.crypto.keys import (
    GENERATOR,
    GX,
    GY,
    INFINITY,
    N,
    P,
    CurvePoint,
    PrivateKey,
    _add_generator_multiple,
    _generator_combination,
    _generator_table,
    _signed_digits,
    _jacobian_add_affine,
    _JACOBIAN_INFINITY,
    _to_affine,
)
from repro.crypto.signature import Signature, _message_scalar, sign, verify
from tests.helpers import reference_scalar_mult

pytestmark = pytest.mark.fastpath

VECTORS = json.loads(
    (Path(__file__).parent.parent / "data" / "crypto_vectors.json").read_text()
)["vectors"]

EDGE_SCALARS = (0, 1, 2, 15, 16, 2**255, N - 1, N, N + 1, -3)

#: A point that is not the generator, so ``__mul__`` takes the ladder.
Q = reference_scalar_mult(GENERATOR, 0xDEADBEEFCAFEBABE1234567)

scalars = st.integers(min_value=-(2**260), max_value=2**260)
reduced = st.integers(min_value=0, max_value=N - 1)
nonzero = st.integers(min_value=1, max_value=N - 1)
points = st.integers(min_value=2, max_value=N - 1).map(lambda k: GENERATOR * k)


def _rescaled(point: CurvePoint, z: int):
    """The Jacobian triple of ``point`` with denominator ``z``."""
    return point.x * z * z % P, point.y * z * z * z % P, z


class TestAgainstReference:
    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_generator_multiples(self, k):
        assert GENERATOR * k == reference_scalar_mult(GENERATOR, k)

    @given(points, scalars)
    @settings(max_examples=40, deadline=None)
    def test_point_multiples(self, point, k):
        assert point * k == reference_scalar_mult(point, k)

    @given(reduced, nonzero, points)
    @settings(max_examples=25, deadline=None)
    def test_generator_combination(self, u1, u2, point):
        expected = reference_scalar_mult(GENERATOR, u1) + reference_scalar_mult(point, u2)
        assert _generator_combination(u1, u2, point) == expected

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    @pytest.mark.parametrize("point", (GENERATOR, Q), ids=("G", "Q"))
    def test_edge_scalars(self, point, k):
        assert point * k == reference_scalar_mult(point, k)
        assert k * point == point * k

    def test_infinity_times_anything(self):
        assert (INFINITY * 5).is_infinity

    def test_decoded_generator_reads_the_table_too(self):
        copy = CurvePoint.decode(GENERATOR.encode())
        assert copy is not GENERATOR
        assert copy * 12345 == reference_scalar_mult(GENERATOR, 12345)


class TestPublishedVectors:
    @pytest.mark.parametrize(
        "k, x, y",
        [
            (1, GX, GY),
            (
                2,
                0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
                0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
            ),
            (
                3,
                0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
                0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
            ),
            (
                N - 1,
                GX,
                0xB7C52588D95C3B9AA25B0403F1EEF75702E84BB7597AABE663B82F6F04EF2777,
            ),
        ],
        ids=("1", "2", "3", "N-1"),
    )
    def test_generator_multiple(self, k, x, y):
        point = GENERATOR * k
        assert (point.x, point.y) == (x, y)


class TestMixedAdditionCorners:
    def test_equal_operands_double(self):
        acc = _jacobian_add_affine(*_rescaled(Q, 7), Q.x, Q.y)
        assert _to_affine(acc) == Q + Q

    def test_opposite_operands_cancel(self):
        acc = _jacobian_add_affine(*_rescaled(-Q, 7), Q.x, Q.y)
        assert acc[2] == 0
        assert _to_affine(acc) is INFINITY

    def test_infinity_accumulator(self):
        acc = _jacobian_add_affine(*_JACOBIAN_INFINITY, Q.x, Q.y)
        assert _to_affine(acc) == Q

    def test_distinct_operands(self):
        acc = _jacobian_add_affine(*_rescaled(GENERATOR, 11), Q.x, Q.y)
        assert _to_affine(acc) == GENERATOR + Q

    def test_table_addition_hits_the_accumulator(self):
        # The ladder leaves acc == 3·256·G; window 0 adds nothing, and
        # window 1's entry 3·256·G equals acc: a doubling.
        u = 3 * 256
        assert _signed_digits(u) == [0, 3] + [0] * 31
        assert _generator_combination(u, u, GENERATOR) == reference_scalar_mult(GENERATOR, 2 * u)

    def test_table_addition_cancels_then_continues(self):
        # −5G + 5G is infinity at window 0; window 1 then adds into infinity.
        k = 5 + 256 * 3
        assert _signed_digits(k) == [5, 3] + [0] * 31
        acc = _add_generator_multiple(_rescaled(-(GENERATOR * 5), 9), k)
        assert _to_affine(acc) == reference_scalar_mult(GENERATOR, 768)

    def test_zero_generator_scalar(self):
        assert _generator_combination(0, 9, Q) == reference_scalar_mult(Q, 9)


class TestGeneratorTable:
    """The 33 × 128 table of ``d·256^w·G`` and the signed 8-bit recoding."""

    def test_shape(self):
        table = _generator_table()
        assert len(table) == 33
        assert all(len(row) == 128 for row in table)
        assert _generator_table() is table

    @pytest.mark.parametrize("window", (0, 1, 16, 31, 32))
    @pytest.mark.parametrize("digit", (1, 2, 3, 15, 127, 128))
    def test_entries(self, window, digit):
        expected = reference_scalar_mult(GENERATOR, digit * 256**window)
        assert _generator_table()[window][digit - 1] == (expected.x, expected.y)

    @pytest.mark.parametrize("window", (0, 5, 32))
    @pytest.mark.parametrize("digit", (1, 77, 127, 128))
    def test_mirror_of_an_entry_is_the_negative_multiple(self, window, digit):
        # A negative digit adds (x, P − y): −d·256^w·G, also at |d| = 128.
        x, y = _generator_table()[window][digit - 1]
        expected = reference_scalar_mult(GENERATOR, -digit * 256**window)
        assert (x, P - y) == (expected.x, expected.y)

    @given(st.integers(min_value=0, max_value=2**256 - 1))
    @settings(max_examples=200, deadline=None)
    def test_recoding_sums_back_to_the_scalar(self, k):
        digits = _signed_digits(k)
        assert len(digits) == 33
        assert all(-127 <= digit <= 128 for digit in digits)
        assert digits[-1] in (0, 1)
        assert sum(digit * 256**w for w, digit in enumerate(digits)) == k

    @pytest.mark.parametrize(
        "k, low_digits",
        [
            (0x80, [128, 0]),  # 128 with no carry in: +128, no carry out
            (0x81, [-127, 1]),  # past 128: negative, carry out
            (0x7F81, [-127, 128]),  # 0x7F plus the carry is exactly 128
            (0x8081, [-127, -127, 1]),  # 0x80 plus the carry is 129
            (0xFF81, [-127, 0, 1]),  # 0xFF plus the carry is 256: digit 0, carry on
            (0xFF, [-1, 1]),
        ],
    )
    def test_digit_boundaries(self, k, low_digits):
        digits = _signed_digits(k)
        assert digits[: len(low_digits)] == low_digits
        assert not any(digits[len(low_digits) :])

    @pytest.mark.parametrize(
        "k",
        [
            N - 1,
            2**256 - 1,
            int("80" * 32, 16),
            int("ff" * 32, 16) - 2**255,
            int("80ff" * 16, 16),
            int("7f80" * 16, 16),
            int("81" * 32, 16),
            2**255,
        ],
        ids=("N-1", "2^256-1", "0x80..", "0x7fff..", "0x80ff..", "0x7f80..", "0x81..", "2^255"),
    )
    def test_walk_at_the_digit_boundaries(self, k):
        acc = _add_generator_multiple(_JACOBIAN_INFINITY, k)
        assert _to_affine(acc) == reference_scalar_mult(GENERATOR, k)

    @pytest.mark.parametrize("k", (2**256 - 1, N - 1, int("ff" * 32, 16) - 0x7F))
    def test_top_carry_reads_the_33rd_row(self, k):
        assert _signed_digits(k)[-1] == 1
        acc = _add_generator_multiple(_JACOBIAN_INFINITY, k)
        assert _to_affine(acc) == reference_scalar_mult(GENERATOR, k)

    def test_negative_digit_cancels_then_continues(self):
        # 5G + (−5G) is infinity at window 0; window 1 then adds into it.
        k = 256 - 5
        assert _signed_digits(k)[:2] == [-5, 1]
        acc = _add_generator_multiple(_rescaled(GENERATOR * 5, 9), k)
        assert _to_affine(acc) == reference_scalar_mult(GENERATOR, 256)

    def test_negative_digit_hits_the_accumulator(self):
        # acc == −3G meets the mirror of 3G: the equal-operand doubling.
        acc = _add_generator_multiple(_rescaled(-(GENERATOR * 3), 5), 256 - 3)
        assert _to_affine(acc) == reference_scalar_mult(GENERATOR, 256 - 6)


class TestVerifyCorners:
    @pytest.mark.parametrize("secret", (1, N - 1), ids=("Q=G", "Q=-G"))
    def test_public_key_on_the_generator_axis(self, secret):
        private = PrivateKey(secret)
        public = private.public_key()
        assert public.point.x == GX
        signature = sign(private, b"axis")
        assert verify(public, b"axis", signature)
        assert not verify(public, b"other", signature)

    @pytest.mark.parametrize("secret", (1, N - 1, 0xC0FFEE))
    def test_crafted_cancellation_is_false_not_an_error(self, secret):
        # r = −z/d makes u1·G + u2·Q = w·(z + r·d)·G the point at infinity.
        public = PrivateKey(secret).public_key()
        message = b"cancel"
        r = (-_message_scalar(message) * pow(secret, -1, N)) % N
        for s in (1, 2, N - 1):
            assert verify(public, message, Signature(r, s)) is False


class TestPinnedBytes:
    """Keys, addresses and signatures are the parent kernel's, byte for byte."""

    def test_enough_vectors(self):
        assert len(VECTORS) >= 32
        sizes = {len(v["message_hex"]) // 2 * v["message_repeat"] for v in VECTORS}
        assert {0, 100_000} <= sizes

    @pytest.mark.parametrize("vector", VECTORS, ids=[f"v{i}" for i in range(len(VECTORS))])
    def test_vector(self, vector):
        message = bytes.fromhex(vector["message_hex"]) * vector["message_repeat"]
        account = Account.create(seed=tuple(vector["seed"]))
        signature = account.sign(message)
        assert account.public_key.hex() == vector["public_key"]
        assert account.address == vector["address"]
        assert signature.hex() == vector["signature"]
        assert account.verify_own(message, signature)
