"""The stored block encoding (:func:`repro.core.serialization.block_to_bytes`).

A stored block leads with its hash preimage, so the oracle for the
header is the field encoder the hash always ran
(:func:`tests.helpers.reference_hash_preimage`).  Beyond that the codec
must round-trip both ways — a block through its bytes, and any bytes it
accepts through the block they decode to — refuse every truncation,
flipped byte and inserted byte with :class:`ValidationError`, refuse
every non-canonical spelling of a field, and raise nothing but
:class:`ValidationError` on arbitrary input.
"""

import dataclasses
import hashlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Block
from repro.core.errors import ValidationError
from repro.core.metadata import MetadataItem
from repro.core.serialization import (
    BLOCK_CODEC_VERSION,
    block_from_bytes,
    block_to_bytes,
    verify_block_bytes,
)
from repro.crypto.hashing import hash_preimage
from repro.crypto.merkle import merkle_root
from tests.helpers import reference_hash_items, reference_hash_preimage

pytestmark = pytest.mark.fastpath

#: Floats a chain can hold, and the ones whose repr is unusual.
reals = st.floats(min_value=0, allow_infinity=False, allow_nan=False) | st.sampled_from(
    [0.0, 1e16, 5e-324, 1.7976931348623157e308, 60.000000000000014, 0.1]
)
texts = st.text(max_size=12)
node_lists = st.lists(st.integers(min_value=-1, max_value=10**6), max_size=5).map(tuple)

items = st.builds(
    MetadataItem,
    data_id=texts,
    data_type=texts,
    created_at=reals,
    location=texts,
    producer=st.integers(min_value=-1, max_value=2**40),
    producer_address=texts,
    producer_public_key_hex=texts,
    signature_hex=texts,
    valid_time_minutes=st.floats(min_value=1e-300, allow_infinity=False) | st.just(1440.0),
    properties=texts,
    size_bytes=st.integers(min_value=1, max_value=2**70),
    storing_nodes=node_lists,
)


@st.composite
def blocks(draw):
    index = draw(st.integers(min_value=0, max_value=2**40))
    return Block(
        index=index,
        timestamp=draw(reals),
        previous_hash=draw(texts),
        pos_hash=draw(texts),
        miner=-1 if index == 0 else draw(st.integers(min_value=-1, max_value=2**31)),
        miner_address=draw(texts),
        hit=draw(
            st.integers(min_value=0, max_value=2**64)
            | st.integers(min_value=2**64 - 16, max_value=2**64 + 16)
        ),
        target_b=draw(reals),
        metadata_items=tuple(draw(st.lists(items, max_size=5))),
        storing_nodes=draw(node_lists),
        previous_storing_nodes=draw(node_lists),
        recent_cache_nodes=draw(node_lists),
    )


def reference_header(block: Block) -> bytes:
    leaves = [
        reference_hash_items(
            "metadata", item.data_id, item.data_type, str(item.created_at), item.location,
            item.producer, item.producer_address, str(item.valid_time_minutes),
            item.properties, item.size_bytes,
        )
        for item in block.metadata_items
    ]
    return reference_hash_preimage(
        "block", block.index, str(block.timestamp), block.previous_hash, block.pos_hash,
        block.miner, block.miner_address, block.hit, str(block.target_b),
        merkle_root(leaves),
        ",".join(map(str, block.storing_nodes)),
        ",".join(map(str, block.previous_storing_nodes)),
        ",".join(map(str, block.recent_cache_nodes)),
    )


def wrapped(*fields) -> bytes:
    """``fields`` framed as a stored block is, version byte and CRC included."""
    body = bytes([BLOCK_CODEC_VERSION]) + hash_preimage(*fields)
    return body + zlib.crc32(body).to_bytes(4, "big")


def outcome(decode, data):
    try:
        return decode(data)
    except ValidationError:
        return ValidationError


class TestHeaderIsTheHashPreimage:
    @settings(max_examples=150, deadline=None)
    @given(block=blocks())
    def test_header_bytes_equal_the_oracle(self, block):
        header = reference_header(block)
        assert block.header_bytes() == header
        assert block.current_hash == block.compute_hash() == hashlib.sha256(header).hexdigest()
        for item in block.metadata_items:
            assert item.signing_payload() == hashlib.sha256(item.signing_preimage()).digest()

    @settings(max_examples=150, deadline=None)
    @given(block=blocks())
    def test_stored_bytes_lead_with_the_header(self, block):
        data = block_to_bytes(block)
        header = block.header_bytes()
        assert data[0] == BLOCK_CODEC_VERSION
        assert data[5:6] == b"B" and data[6 : 6 + len(header)] == header
        assert int.from_bytes(data[1:5], "big") == 1 + len(header)


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(block=blocks())
    def test_block_through_its_bytes(self, block):
        data = block_to_bytes(block)
        decoded = block_from_bytes(data, block.current_hash)
        assert decoded == block
        assert decoded.metadata_items == block.metadata_items
        assert block_from_bytes(data) == block
        # A copy without the memo encodes to the same bytes from its fields.
        assert block_to_bytes(dataclasses.replace(decoded)) == data
        previous_hash, timestamp = verify_block_bytes(data, block.index, block.current_hash)
        assert (previous_hash, timestamp) == (block.previous_hash, block.timestamp)

    @settings(max_examples=300, deadline=None)
    @given(
        block=blocks(),
        edits=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_every_accepted_byte_string_is_the_encoding_of_its_block(self, block, edits):
        data = bytearray(block_to_bytes(block))
        for at, value in edits:
            data[at % len(data)] = value
        body = bytes(data[:-4])
        candidate = body + zlib.crc32(body).to_bytes(4, "big")  # get past the CRC
        decoded = outcome(block_from_bytes, candidate)
        if decoded is not ValidationError:
            assert block_to_bytes(decoded) == candidate
            assert block_to_bytes(dataclasses.replace(decoded)) == candidate


class TestDamageIsRefused:
    @settings(max_examples=25, deadline=None)
    @given(block=blocks())
    def test_every_cut_flip_and_insertion(self, block):
        data = block_to_bytes(block)
        expected = block.current_hash
        for cut in range(len(data)):
            assert outcome(lambda d: block_from_bytes(d, expected), data[:cut]) is ValidationError
        for at in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
                assert outcome(lambda d: block_from_bytes(d, expected), flipped) is ValidationError
                assert outcome(lambda d: verify_block_bytes(d, block.index, expected), flipped) is ValidationError
        for at in range(len(data) + 1):
            for byte in (b"\x00", b"B", b"\xff"):
                inserted = data[:at] + byte + data[at:]
                assert outcome(lambda d: block_from_bytes(d, expected), inserted) is ValidationError

    def test_a_block_of_another_hash_is_refused(self):
        block = Block(0, 1.0, "p", "q", -1, "", 0, 2.0, storing_nodes=(0, 1))
        other = dataclasses.replace(block, timestamp=2.0, current_hash="")
        with pytest.raises(ValidationError, match="hash to"):
            block_from_bytes(block_to_bytes(other), block.current_hash)
        with pytest.raises(ValidationError, match="do not hash"):
            verify_block_bytes(block_to_bytes(other), 0, block.current_hash)
        with pytest.raises(ValidationError, match="do not match their header"):
            verify_block_bytes(block_to_bytes(block), 1, block.current_hash)

    @pytest.mark.parametrize(
        "position, spelling",
        [
            (1, b"I+\x00\x07"),  # index with a leading zero byte
            (1, b"I-\x00"),  # index minus zero
            (1, b"I+"),  # index without a magnitude
            (2, b"S1.50"),  # timestamp not repr-exact
            (2, b"S1e0"),
            (2, b"S\xef\xbc\x91.0"),  # a full-width digit float() accepts
            (8, b"S2"),  # target_b an int spelling
            (10, b"S01"),  # node list with a leading zero
            (10, b"S0,,1"),
            (10, b"S0, 1"),
            (10, b"S+1"),
            (10, b"S-0"),
            (10, b"S\xd9\xa1"),  # an Arabic-Indic digit int() accepts
            (3, b"S\xff"),  # not UTF-8
            (3, b"Bpq"),  # wrong type tag
            (0, b"Sblocks"),
        ],
    )
    def test_non_canonical_spellings_are_refused(self, position, spelling):
        block = Block(7, 1.5, "p", "q", 2, "a", 3, 2.0, storing_nodes=(0, 1))
        fields = [
            b"Sblock", b"I+\x07", b"S1.5", b"Sp", b"Sq", b"I+\x02", b"Sa", b"I+\x03",
            b"S2.0", b"B" + merkle_root([]), b"S0,1", b"S", b"S",
        ]
        header = b"".join(len(field).to_bytes(4, "big") + field for field in fields)
        assert header == block.header_bytes()
        assert block_from_bytes(wrapped(header)) == block
        fields[position] = spelling
        header = b"".join(len(field).to_bytes(4, "big") + field for field in fields)
        with pytest.raises(ValidationError):
            block_from_bytes(wrapped(header))

    def test_items_whose_root_is_not_in_the_header_are_refused(self):
        item = MetadataItem("d", "t", 1.0, "l", 1, "a", "k", "s", 10.0)
        block = Block(7, 1.5, "p", "q", 2, "a", 3, 2.0, metadata_items=(item,))
        data = block_to_bytes(block)
        empty = block_to_bytes(dataclasses.replace(block, metadata_items=(), current_hash=""))
        swapped = wrapped(block.header_bytes())  # the header without its items
        with pytest.raises(ValidationError, match="content root"):
            block_from_bytes(swapped)
        with pytest.raises(ValidationError, match="do not match"):
            verify_block_bytes(swapped, 7, block.current_hash)
        assert block_from_bytes(data) == block and block_from_bytes(empty).metadata_items == ()

    def test_another_codec_version_is_refused(self):
        data = bytearray(block_to_bytes(Block(0, 0.0, "p", "q", -1, "", 0, 1.0)))
        data[0] = BLOCK_CODEC_VERSION + 1
        body = bytes(data[:-4])
        with pytest.raises(ValidationError, match="unsupported block codec"):
            block_from_bytes(body + zlib.crc32(body).to_bytes(4, "big"))


class TestArbitraryInput:
    @settings(max_examples=400, deadline=None)
    @given(data=st.binary(max_size=200) | st.binary(max_size=40).map(lambda b: b"\x01" + b))
    def test_arbitrary_bytes_raise_only_validation_errors(self, data):
        outcome(block_from_bytes, data)
        outcome(lambda d: verify_block_bytes(d, 0, "0" * 64), data)

    @settings(max_examples=400, deadline=None)
    @given(
        fields=st.lists(
            st.tuples(st.sampled_from(b"SIBX"), st.binary(max_size=12)).map(
                lambda pair: bytes([pair[0]]) + pair[1]
            ),
            max_size=20,
        ),
        header_fields=st.lists(
            st.sampled_from([b"Sblock", b"I+\x01", b"I-\x01", b"S1.0", b"S0,1", b"S", b"Sx"])
            | st.binary(max_size=6),
            max_size=15,
        ),
    )
    def test_framed_garbage_past_the_crc_raises_only_validation_errors(
        self, fields, header_fields
    ):
        header = b"".join(len(field).to_bytes(4, "big") + field for field in header_fields)
        data = wrapped(header, *fields)
        decoded = outcome(block_from_bytes, data)
        if decoded is not ValidationError:
            assert block_to_bytes(decoded) == data
        outcome(lambda d: verify_block_bytes(d, 1, hashlib.sha256(header).hexdigest()), data)

    def test_non_bytes_are_refused(self):
        for value in (None, "text", 7, bytearray(b"\x01" * 12), memoryview(b"\x01" * 12)):
            with pytest.raises(ValidationError):
                block_from_bytes(value)
