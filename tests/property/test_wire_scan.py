"""Every cut and every flipped byte of a live wire stream fails typed.

A peer's bytes reach :class:`repro.net.wire.FrameDecoder` and
:func:`repro.net.wire.decode_message` straight off the socket, and the
reader loop that calls them drops the peer on a
:class:`~repro.core.errors.ValidationError` only.  Any other exception
ends the reader task instead, so the peer is never marked lost and a
socket in its handshake is never closed.  These tests take a stream of
real encoded protocol frames, one of every message type, and feed it
through the decoder cut at every byte and with every byte flipped
(masks ``0x01``, ``0x80``, ``0xFF``): each case yields valid messages or
a ``ValidationError``, never anything else.
"""

import struct

import pytest

from repro.core import messages as m
from repro.core.account import Account
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.errors import ValidationError
from repro.core.metadata import create_metadata
from repro.net.wire import FrameDecoder, WireError, decode_message, encode_message
from tests.helpers import mine_next

ACCOUNTS = {i: Account.for_node(66, i) for i in range(3)}


def protocol_messages():
    """One message of every wire type, the block-carrying ones non-trivial."""
    chain = Blockchain(
        list(ACCOUNTS), SystemConfig(), {i: a.address for i, a in ACCOUNTS.items()}
    )
    item = create_metadata(
        ACCOUNTS[1], producer=1, sequence=0, created_at=5.0, properties="Camera"
    ).with_storing_nodes((0, 2))
    block = mine_next(chain, ACCOUNTS, 2, metadata_items=(item,), storing=(0, 2))
    return [
        (m.MetadataAnnounce(metadata=item), m.CATEGORY_METADATA),
        (m.BlockAnnounce(block=block), m.CATEGORY_BLOCK),
        (m.BlockRequest(indices=(1, 2), origin=1, ttl=2), m.CATEGORY_BLOCK_RECOVERY),
        (m.BlockResponse(blocks=(chain.block_at(0),)), m.CATEGORY_BLOCK_RECOVERY),
        (m.ChainRequest(origin=4), m.CATEGORY_CHAIN_SYNC),
        (m.ChainResponse(blocks=(chain.block_at(0), block)), m.CATEGORY_CHAIN_SYNC),
        (m.DataRequest(data_id="d1", requester=3, request_id=9), m.CATEGORY_DATA_REQUEST),
        (m.DataResponse(data_id="d1", request_id=9, size_bytes=4096), m.CATEGORY_DATA_RESPONSE),
        (m.DataNack(data_id="d1", request_id=9), m.CATEGORY_DATA_RESPONSE),
        (m.DisseminationRequest(data_id="d1", requester=3), m.CATEGORY_DISSEMINATION_REQUEST),
        (m.DisseminationResponse(data_id="d1", size_bytes=4096), m.CATEGORY_DISSEMINATION),
        (m.InvalidStorageClaim(data_id="d1", storing_node=2, claimer=5), m.CATEGORY_STORAGE_CLAIM),
    ]


@pytest.fixture(scope="module")
def stream():
    """``(bytes, decoded messages, end offset of each frame)``."""
    frames = [
        encode_message(source, payload, category, size_bytes=64 * source, sent_at=1.5 * source)
        for source, (payload, category) in enumerate(protocol_messages())
    ]
    ends, total = [], 0
    for frame in frames:
        total += len(frame)
        ends.append(total)
    data = b"".join(frames)
    return data, read_stream(data), ends


def read_stream(data):
    """Every message ``data`` completes, decoded as a live reader does."""
    return [decode_message(frame) for frame in FrameDecoder().feed(data)]


def is_message(decoded):
    source, payload, category, size_bytes, sent_at = decoded
    return (
        isinstance(source, int)
        and type(payload).__module__ == m.__name__
        and isinstance(category, str)
        and isinstance(size_bytes, int)
        and isinstance(sent_at, float)
    )


class TestEveryCutAndFlip:
    def test_a_cut_at_any_byte_yields_the_whole_messages_before_it(self, stream):
        data, messages, ends = stream
        assert len(messages) == len(ends) == 12
        for cut in range(len(data) + 1):
            whole = sum(1 for end in ends if end <= cut)
            assert read_stream(data[:cut]) == messages[:whole], cut

    def test_a_flipped_byte_anywhere_is_refused_typed_or_decodes(self, stream):
        data, _, _ = stream
        refused = 0
        for position in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = data[:position] + bytes([data[position] ^ mask]) + data[position + 1 :]
                try:
                    decoded = read_stream(flipped)
                except ValidationError:
                    refused += 1
                    continue
                assert all(is_message(entry) for entry in decoded), (position, mask)
        # Most flips break JSON, a hash or a header; the check is not vacuous.
        assert refused > len(data)


class TestHostileFrames:
    def test_a_non_string_message_type_is_refused(self):
        with pytest.raises(WireError):
            decode_message({"v": 1, "kind": "msg", "type": [1], "body": {}})

    def test_json_nested_past_the_parser_is_refused(self):
        body = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(WireError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)
