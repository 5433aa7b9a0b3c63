"""Property-based tests for the extension modules (serialization, audit)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.account import Account
from repro.core.audit import audit_chain
from repro.core.block import make_genesis
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.metadata import create_metadata
from repro.core.serialization import (
    block_from_bytes,
    block_from_dict,
    block_to_bytes,
    block_to_dict,
    metadata_from_dict,
    metadata_to_dict,
)

_ACCOUNT = Account.for_node(4242, 0)


class TestSerializationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=1000),
            min_size=0,
            max_size=40,
        ),
        st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
        st.lists(st.integers(min_value=0, max_value=200), max_size=8),
    )
    def test_metadata_round_trip(self, seq, created, properties, valid, storers):
        item = create_metadata(
            _ACCOUNT,
            producer=0,
            sequence=seq,
            created_at=created,
            properties=properties,
            valid_time_minutes=valid,
        ).with_storing_nodes(tuple(storers))
        decoded = metadata_from_dict(metadata_to_dict(item))
        assert decoded == item
        assert decoded.signing_payload() == item.signing_payload()

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        st.floats(min_value=0.1, max_value=1e9, allow_nan=False),
    )
    def test_genesis_round_trip(self, node_ids, initial_b):
        genesis = make_genesis(tuple(sorted(set(node_ids))), initial_b)
        decoded = block_from_dict(block_to_dict(genesis))
        assert decoded.current_hash == genesis.current_hash
        assert decoded.hash_is_valid()


class TestAuditProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8),
        st.integers(min_value=2, max_value=50),
    )
    def test_audit_always_matches_chain_state(self, miners, rescale_interval):
        from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
        from repro.core.block import Block

        config = SystemConfig(
            expected_block_interval=10.0, token_rescale_interval=rescale_interval
        )
        accounts = {i: Account.for_node(88, i) for i in range(3)}
        address_of = {i: a.address for i, a in accounts.items()}
        chain = Blockchain(list(range(3)), config, address_of)
        for miner in miners:
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
        report = audit_chain(chain.blocks, range(3), config)
        for node in range(3):
            assert report.balance(node) == pytest.approx(chain.state.tokens(node))


class TestChainSerializationProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=5))
    def test_serialised_chain_revalidates(self, miners):
        from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
        from repro.core.block import Block

        config = SystemConfig(expected_block_interval=10.0)
        accounts = {i: Account.for_node(99, i) for i in range(3)}
        address_of = {i: a.address for i, a in accounts.items()}
        chain = Blockchain(list(range(3)), config, address_of)
        for miner in miners:
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
        # Stored as the chain store and archive store it, read back checked.
        decoded = [
            block_from_bytes(block_to_bytes(block), block.current_hash)
            for block in chain.blocks
        ]
        replica = Blockchain(
            list(range(3)), config, address_of, genesis=decoded[0]
        )
        for block in decoded[1:]:
            replica.append_block(block)
        assert replica.tip.current_hash == chain.tip.current_hash
