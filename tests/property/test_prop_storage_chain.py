"""Property-based tests for storage accounting and chain-state invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.account import Account
from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
from repro.core.storage import NodeStorage
from repro.core.block import Block
from repro.core.errors import StorageError
from repro.core.metadata import create_metadata
from tests.helpers import private_replay

_ACCOUNT = Account.for_node(1234, 0)


@st.composite
def storage_ops(draw):
    """A random sequence of store/drop/evict operations."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("store"), st.integers(0, 20)),
                st.tuples(st.just("drop"), st.integers(0, 20)),
                st.tuples(st.just("evict"), st.floats(0, 10_000)),
            ),
            max_size=40,
        )
    )


class TestStorageInvariants:
    @settings(max_examples=30, deadline=None)
    @given(storage_ops(), st.integers(min_value=1, max_value=10))
    def test_used_slots_never_exceed_capacity(self, ops, capacity):
        storage = NodeStorage(capacity=capacity, recent_cache_capacity=2)
        items = {}
        for op, arg in [(o[0], o[1]) for o in ops]:
            if op == "store":
                if arg not in items:
                    items[arg] = create_metadata(
                        _ACCOUNT, 0, arg, 0.0, valid_time_minutes=1.0 + arg
                    )
                try:
                    storage.store_data(items[arg])
                except StorageError:
                    pass
            elif op == "drop":
                if arg in items:
                    storage.drop_data(items[arg].data_id)
            else:
                storage.evict_expired(arg)
            assert 0 <= storage.used_slots() <= capacity

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0, max_value=1e6))
    def test_evicted_items_are_exactly_the_expired(self, now):
        storage = NodeStorage(capacity=50, recent_cache_capacity=0)
        items = [
            create_metadata(_ACCOUNT, 0, i, 0.0, valid_time_minutes=float(i + 1))
            for i in range(20)
        ]
        for item in items:
            storage.store_data(item)
        evicted = set(storage.evict_expired(now))
        for item in items:
            if item.is_expired(now):
                assert item.data_id in evicted
            else:
                assert storage.has_data(item.data_id)


#: One signed item; the expiry differential varies its id and lifetime.
_BASE_ITEM = create_metadata(_ACCOUNT, 0, 0, 0.0)


def _scan_evict(storage, now):
    """The eviction the expiry heap replaced: scan every stored item."""
    expired = [
        data_id
        for data_id, entry in storage._data.items()
        if entry.metadata.is_expired(now)
    ]
    for data_id in expired:
        del storage._data[data_id]
    return expired


def _slots(storage):
    """Each data slot's id and expiry, in insertion order."""
    return [
        (entry.metadata.data_id, entry.metadata.expires_at)
        for entry in storage.data_entries()
    ]


@st.composite
def expiry_ops(draw):
    """Stores (an id may come back with another lifetime after a drop),
    drops, and evictions at times that may go back."""
    lifetime = st.sampled_from([0.5, 1.0, 1.0, 2.5, 10.0, math.inf])
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("store"),
                    st.integers(0, 5),
                    st.sampled_from([0.0, 30.0, 60.0, 90.0]),
                    lifetime,
                ),
                st.tuples(st.just("drop"), st.integers(0, 5)),
                st.tuples(
                    st.just("evict"), st.sampled_from([0.0, 30.0, 60.0, 150.0, 600.0])
                    | st.floats(0, 1_000),
                ),
            ),
            max_size=60,
        )
    )


class TestExpiryHeap:
    @settings(max_examples=200, deadline=None)
    @given(expiry_ops())
    # An id dropped and stored anew with a longer life: its first record
    # on the heap comes due while the second item has not expired.
    @example([("evict", 0.0), ("store", 0, 0.0, 0.5), ("drop", 0),
              ("store", 0, 0.0, 10.0), ("evict", 60.0)])  # fmt: skip
    def test_heap_evicts_what_the_scan_evicts_in_its_order(self, ops):
        heap = NodeStorage(capacity=12, recent_cache_capacity=0)
        scan = NodeStorage(capacity=12, recent_cache_capacity=0)
        for op, *args in ops:
            if op == "store":
                key, created_at, minutes = args
                item = replace(
                    _BASE_ITEM,
                    data_id=f"item-{key}",
                    created_at=created_at,
                    valid_time_minutes=minutes,
                )
                for storage in (heap, scan):
                    try:
                        storage.store_data(item)
                    except StorageError:
                        pass
            elif op == "drop":
                heap.drop_data(f"item-{args[0]}")
                scan.drop_data(f"item-{args[0]}")
            else:
                assert heap.evict_expired(args[0]) == _scan_evict(scan, args[0])
            assert _slots(heap) == _slots(scan)


def _mine(chain, accounts, miner):
    parent = chain.tip
    address = accounts[miner].address
    state = chain.state
    hit = compute_hit(parent.pos_hash, address, chain.config.hit_modulus)
    amendment = state.amendment(parent.timestamp)
    delay = mining_delay(
        hit, state.tokens(miner), state.stored_items(miner, parent.timestamp), amendment
    )
    return Block(
        index=parent.index + 1,
        timestamp=parent.timestamp + delay,
        previous_hash=parent.current_hash,
        pos_hash=compute_pos_hash(parent.pos_hash, address),
        miner=miner,
        miner_address=address,
        hit=hit,
        target_b=amendment,
        storing_nodes=(miner,),
        previous_storing_nodes=tuple(state.block_storing.get(parent.index, ())),
    )


class TestChainStateInvariants:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
    def test_token_conservation(self, miners):
        """Total tokens = initial + per-block incentives (± rescaling)."""
        config = SystemConfig(token_rescale_interval=1000)
        accounts = {i: Account.for_node(5, i) for i in range(4)}
        address_of = {i: a.address for i, a in accounts.items()}
        chain = Blockchain(list(range(4)), config, address_of)
        for miner in miners:
            chain.append_block(_mine(chain, accounts, miner))
        total = sum(chain.state.tokens(i) for i in range(4))
        # Each block: 1 mining incentive + 1 storage incentive (one storer).
        expected = 4 * config.initial_tokens + len(miners) * (
            config.mining_incentive + config.storage_incentive
        )
        assert total == pytest.approx(expected)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=10))
    def test_replay_reproduces_state(self, miners):
        """An independent replay of the same blocks gives identical state —
        the property that makes PoS claims publicly verifiable."""
        config = SystemConfig()
        accounts = {i: Account.for_node(5, i) for i in range(4)}
        address_of = {i: a.address for i, a in accounts.items()}
        chain = Blockchain(list(range(4)), config, address_of)
        for miner in miners:
            chain.append_block(_mine(chain, accounts, miner))
        replica = private_replay(chain.blocks, list(range(4)), config, address_of)
        now = chain.tip.timestamp
        for node in range(4):
            assert replica.state.tokens(node) == chain.state.tokens(node)
            assert replica.state.stored_items(node, now) == chain.state.stored_items(node, now)
        assert replica.state.amendment(now) == chain.state.amendment(now)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
    def test_mining_race_fairness_direction(self, rounds, seed):
        """Nodes that mined before (more tokens) never get slower delays."""
        config = SystemConfig(token_rescale_interval=1000)
        accounts = {i: Account.for_node(seed % 97, i) for i in range(3)}
        address_of = {i: a.address for i, a in accounts.items()}
        chain = Blockchain(list(range(3)), config, address_of)
        for _ in range(rounds):
            chain.append_block(_mine(chain, accounts, miner=0))
        state = chain.state
        now = chain.tip.timestamp
        assert state.tokens(0) > state.tokens(1)
        assert state.stored_items(0, now) >= state.stored_items(1, now)
