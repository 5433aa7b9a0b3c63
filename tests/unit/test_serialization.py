"""Unit tests for the JSON wire format."""

import dataclasses
import json

import pytest

from repro.core.account import Account
from repro.core.block import Block, make_genesis
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.errors import SerializationError, ValidationError
from repro.core.metadata import create_metadata
from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
from repro.core.serialization import (
    WIRE_FORMAT_VERSION,
    block_from_dict,
    block_to_dict,
    chain_from_json,
    chain_to_json,
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


class TestChainWireFormat:
    def test_round_trip(self, small_chain):
        text = chain_to_json(small_chain.blocks)
        decoded = chain_from_json(text)
        assert [b.current_hash for b in decoded] == [
            b.current_hash for b in small_chain.blocks
        ]

    def test_decoded_chain_revalidates(self, small_chain):
        decoded = chain_from_json(chain_to_json(small_chain.blocks))
        replica = Blockchain(
            list(small_chain.node_ids),
            small_chain.config,
            small_chain.address_of,
            genesis=decoded[0],
        )
        for block in decoded[1:]:
            replica.append_block(block)
        assert replica.tip.current_hash == small_chain.tip.current_hash

    def test_broken_linkage_rejected(self, small_chain):
        blocks = list(small_chain.blocks)
        del blocks[1]  # gap between genesis and block 2
        with pytest.raises(ValidationError):
            chain_from_json(chain_to_json(blocks))

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            chain_from_json("{not json")
        with pytest.raises(ValidationError):
            chain_from_json(json.dumps({"v": 99, "blocks": []}))


class TestStorageWireFormat:
    @pytest.fixture
    def loaded_storage(self, account, small_chain):
        from repro.core.storage import NodeStorage

        storage = NodeStorage(capacity=20, recent_cache_capacity=2)
        for sequence in range(3):
            metadata = create_metadata(
                account,
                producer=1,
                sequence=sequence,
                created_at=float(sequence),
                properties="Camera" if sequence else "AirQuality",
            )
            storage.store_data(metadata, has_payload=(sequence == 1))
        storage.set_last_block(small_chain.tip)
        storage.store_block(small_chain.blocks[0])
        # Push three blocks through the 2-slot FIFO: the oldest falls out.
        for block in small_chain.blocks[:3]:
            storage.cache_recent_block(block)
        storage.rejected_for_capacity = 4
        return storage

    def round_trip(self, storage):
        from repro.core.serialization import storage_from_dict, storage_to_dict

        return storage_from_dict(storage_to_dict(storage))

    def test_round_trip_preserves_everything(self, loaded_storage):
        decoded = self.round_trip(loaded_storage)
        assert decoded.capacity == loaded_storage.capacity
        assert decoded.recent_cache_capacity == 2
        assert decoded.rejected_for_capacity == 4
        assert decoded.used_slots() == loaded_storage.used_slots()
        assert decoded.last_block == loaded_storage.last_block
        assert decoded.assigned_blocks() == loaded_storage.assigned_blocks()

    def test_data_entries_keep_insertion_order_and_payload_flags(
        self, loaded_storage
    ):
        decoded = self.round_trip(loaded_storage)
        original = loaded_storage.data_entries()
        restored = decoded.data_entries()
        assert [e.metadata.data_id for e in restored] == [
            e.metadata.data_id for e in original
        ]
        assert [e.has_payload for e in restored] == [False, True, False]

    def test_recent_cache_fifo_order_survives(self, loaded_storage):
        decoded = self.round_trip(loaded_storage)
        assert decoded.recent_blocks() == loaded_storage.recent_blocks()
        # FIFO behaviour resumes exactly: the next insert evicts the
        # same (oldest) block on both sides.
        follow_up = loaded_storage.last_block
        loaded_storage.cache_recent_block(follow_up)
        decoded.cache_recent_block(follow_up)
        assert decoded.recent_blocks() == loaded_storage.recent_blocks()

    def test_json_serialisable(self, loaded_storage):
        from repro.core.serialization import storage_to_dict

        json.dumps(storage_to_dict(loaded_storage))

    def test_wrong_version_rejected(self, loaded_storage):
        from repro.core.serialization import storage_from_dict, storage_to_dict

        payload = storage_to_dict(loaded_storage)
        payload["v"] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(ValidationError):
            storage_from_dict(payload)

    def test_malformed_capacity_rejected(self, loaded_storage):
        from repro.core.serialization import storage_from_dict, storage_to_dict

        payload = storage_to_dict(loaded_storage)
        payload["capacity"] = "plenty"
        with pytest.raises(ValidationError):
            storage_from_dict(payload)


class TestChainJsonGuards:
    """Structural defences of chain_from_json: size and nesting limits."""

    def test_oversized_payload_rejected(self, monkeypatch):
        import repro.core.serialization as ser

        monkeypatch.setattr(ser, "MAX_CHAIN_JSON_BYTES", 64)
        with pytest.raises(SerializationError):
            chain_from_json('{"v": 1, "blocks": ["' + "x" * 64 + '"]}')

    def test_deeply_nested_payload_rejected(self):
        from repro.core.serialization import MAX_CHAIN_JSON_DEPTH

        nested = "[" * (MAX_CHAIN_JSON_DEPTH + 2) + "]" * (MAX_CHAIN_JSON_DEPTH + 2)
        with pytest.raises(SerializationError):
            chain_from_json(nested)

    def test_guard_is_a_validation_error(self):
        # Existing handlers catch ValidationError; the new typed guard
        # must flow through them unchanged.
        assert issubclass(SerializationError, ValidationError)

    def test_honest_chain_passes_guards(self, small_chain):
        text = chain_to_json(small_chain.blocks)
        assert [b.index for b in chain_from_json(text)] == [0, 1, 2, 3]
