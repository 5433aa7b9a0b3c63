"""Unit tests for the JSON wire format."""

import dataclasses
import json

import pytest

from repro.core.account import Account
from repro.core.block import Block, make_genesis
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.errors import ValidationError
from repro.core.metadata import create_metadata
from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
from repro.core.serialization import (
    WIRE_FORMAT_VERSION,
    block_from_dict,
    block_to_dict,
    metadata_from_dict,
    metadata_to_dict,
)


@pytest.fixture
def item(account):
    return create_metadata(
        account, producer=2, sequence=0, created_at=5.0, properties="Camera"
    ).with_storing_nodes((0, 3))


@pytest.fixture
def small_chain():
    config = SystemConfig(expected_block_interval=10.0)
    accounts = {i: Account.for_node(66, i) for i in range(3)}
    address_of = {i: a.address for i, a in accounts.items()}
    chain = Blockchain(list(range(3)), config, address_of)
    for miner in (0, 1, 2):
        parent = chain.tip
        address = accounts[miner].address
        hit = compute_hit(parent.pos_hash, address, config.hit_modulus)
        amendment = chain.state.amendment(parent.timestamp)
        delay = mining_delay(
            hit,
            chain.state.tokens(miner),
            chain.state.stored_items(miner, parent.timestamp),
            amendment,
        )
        chain.append_block(
            Block(
                index=parent.index + 1,
                timestamp=parent.timestamp + delay,
                previous_hash=parent.current_hash,
                pos_hash=compute_pos_hash(parent.pos_hash, address),
                miner=miner,
                miner_address=address,
                hit=hit,
                target_b=amendment,
                storing_nodes=(miner,),
                previous_storing_nodes=tuple(
                    chain.state.block_storing.get(parent.index, ())
                ),
            )
        )
    return chain


class TestMetadataWireFormat:
    def test_round_trip(self, item):
        decoded = metadata_from_dict(metadata_to_dict(item))
        assert decoded == item

    def test_signature_survives(self, item):
        decoded = metadata_from_dict(metadata_to_dict(item))
        assert decoded.verify_signature()

    def test_json_serialisable(self, item):
        json.dumps(metadata_to_dict(item))

    def test_missing_field_rejected(self, item):
        payload = metadata_to_dict(item)
        del payload["signature"]
        with pytest.raises(ValidationError):
            metadata_from_dict(payload)

    def test_wrong_version_rejected(self, item):
        payload = metadata_to_dict(item)
        payload["v"] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(ValidationError):
            metadata_from_dict(payload)

    def test_malformed_field_rejected(self, item):
        payload = metadata_to_dict(item)
        payload["producer"] = "not-a-number"
        with pytest.raises(ValidationError):
            metadata_from_dict(payload)

    @pytest.mark.parametrize("field", ["created_at", "valid_time_minutes"])
    def test_nan_time_rejected(self, item, field):
        # NaN passes any `x < 0` range check; an item expiring at NaN
        # would never expire and never be due on the expiry heap.
        payload = metadata_to_dict(item)
        payload[field] = float("nan")
        with pytest.raises(ValidationError):
            metadata_from_dict(payload)


class TestBlockWireFormat:
    def test_genesis_round_trip(self):
        genesis = make_genesis((0, 1, 2), 123.0)
        decoded = block_from_dict(block_to_dict(genesis))
        assert decoded == genesis
        assert decoded.current_hash == genesis.current_hash

    def test_block_with_contents_round_trip(self, small_chain, item):
        block = small_chain.tip
        decoded = block_from_dict(block_to_dict(block))
        assert decoded == block

    def test_tampering_detected(self, small_chain):
        payload = block_to_dict(small_chain.tip)
        payload["miner"] = payload["miner"] + 1
        with pytest.raises(ValidationError):
            block_from_dict(payload)

    def test_tampering_allowed_without_verification(self, small_chain):
        payload = block_to_dict(small_chain.tip)
        payload["miner"] = payload["miner"] + 1
        decoded = block_from_dict(payload, verify_hash=False)
        assert not decoded.hash_is_valid()

    def test_json_serialisable(self, small_chain):
        json.dumps(block_to_dict(small_chain.tip))
