"""Unit tests for blocks."""

import copy
import dataclasses
import pickle

import pytest

from repro.core import block as block_module
from repro.core.block import GENESIS_PREVIOUS_HASH, Block, make_genesis
from repro.core.metadata import create_metadata
from repro.core.serialization import (
    block_from_bytes,
    block_from_dict,
    block_to_bytes,
    block_to_dict,
)


@pytest.fixture
def genesis():
    return make_genesis(node_ids=(0, 1, 2), initial_b=1e15)


@pytest.fixture
def child(genesis, account):
    return Block(
        index=1,
        timestamp=60.0,
        previous_hash=genesis.current_hash,
        pos_hash="ab" * 32,
        miner=1,
        miner_address=account.address,
        hit=12345,
        target_b=1e15,
    )


class TestGenesis:
    def test_is_genesis(self, genesis):
        assert genesis.is_genesis
        assert genesis.index == 0

    def test_previous_hash_sentinel(self, genesis):
        assert genesis.previous_hash == GENESIS_PREVIOUS_HASH

    def test_all_nodes_store_genesis(self, genesis):
        assert genesis.storing_nodes == (0, 1, 2)

    def test_deterministic(self):
        a = make_genesis((0, 1), 1.0)
        b = make_genesis((0, 1), 1.0)
        assert a.current_hash == b.current_hash

    def test_varies_with_membership(self):
        assert make_genesis((0, 1), 1.0).current_hash != make_genesis((0, 2), 1.0).current_hash


class TestBlockHash:
    def test_hash_set_on_construction(self, child):
        assert child.current_hash
        assert child.hash_is_valid()

    def test_hash_covers_metadata(self, genesis, account):
        item = create_metadata(account, 1, 0, 10.0)
        args = dict(
            index=1,
            timestamp=60.0,
            previous_hash=genesis.current_hash,
            pos_hash="ab" * 32,
            miner=1,
            miner_address=account.address,
            hit=1,
            target_b=1.0,
        )
        without = Block(**args)
        with_item = Block(**args, metadata_items=(item.with_storing_nodes((0,)),))
        assert without.current_hash != with_item.current_hash

    def test_hash_covers_storing_nodes(self, child):
        other = dataclasses.replace(
            child, storing_nodes=(0, 1), current_hash=""
        )
        assert other.current_hash != child.current_hash

    def test_tampered_block_detectable(self, child):
        tampered = dataclasses.replace(child, hit=child.hit + 1)
        # replace() keeps the old current_hash → invalid.
        assert not tampered.hash_is_valid()

    def test_hash_covers_recent_cache_nodes(self, child):
        other = dataclasses.replace(child, recent_cache_nodes=(2,), current_hash="")
        assert other.current_hash != child.current_hash


@pytest.fixture
def block_hashes(monkeypatch):
    """How many times a block's fields were actually hashed."""
    calls = []

    def counting(*items):
        if items[0] == "block":
            calls.append(items[1])
        return real(*items)

    real = block_module.hash_preimage
    monkeypatch.setattr(block_module, "hash_preimage", counting)
    return calls


class TestHashMemo:
    """One object is hashed once; whatever was copied or decoded, again."""

    def test_one_object_is_hashed_once(self, child, block_hashes):
        assert child.hash_is_valid() and child.hash_is_valid()
        assert child.compute_hash() == child.current_hash
        assert block_hashes == []  # construction already hashed it

    @pytest.mark.parametrize(
        "duplicate",
        [
            lambda block: dataclasses.replace(block, hit=block.hit),
            lambda block: pickle.loads(pickle.dumps(block)),
            copy.deepcopy,
            copy.copy,
            lambda block: block_from_dict(block_to_dict(block), verify_hash=False),
        ],
        ids=["replace", "pickle", "deepcopy", "copy", "wire"],
    )
    def test_memo_does_not_travel(self, child, block_hashes, duplicate):
        twin = duplicate(child)
        assert twin is not child and twin == child
        assert block_hashes == []
        assert twin.hash_is_valid()
        assert block_hashes == [child.index]  # re-hashed from its own fields
        assert twin.hash_is_valid()
        assert len(block_hashes) == 1

    def test_bytes_decode_keeps_the_header_it_read(self, child, block_hashes):
        """The byte codec accepts only the canonical encoding of the block
        it decodes to, so the header it read is the fields' preimage."""
        data = block_to_bytes(child)
        twin = block_from_bytes(data, child.current_hash)
        assert twin is not child and twin == child
        assert twin.hash_is_valid() and twin.header_bytes() == child.header_bytes()
        assert block_hashes == []
        assert dataclasses.replace(twin).header_bytes() == twin.header_bytes()
        assert block_hashes == [child.index]  # a copy is hashed from its fields

    def test_memo_is_invisible(self, child):
        # Same fields, hash handed in: nothing was computed, no memo yet.
        cold = Block(
            **{f.name: getattr(child, f.name) for f in dataclasses.fields(child)}
        )
        assert vars(cold).keys() == {f.name for f in dataclasses.fields(child)}
        assert vars(child).keys() != vars(cold).keys()
        assert cold == child and hash(cold) == hash(child)
        assert repr(cold) == repr(child)
        assert pickle.dumps(cold) == pickle.dumps(child)

    def test_placement_digest_covers_what_the_hash_leaves_out(self, account, child):
        """Same rules for the second memo: item placement, outside the hash."""
        item = create_metadata(account, 1, 0, 10.0)
        here = dataclasses.replace(
            child, metadata_items=(item.with_storing_nodes((0, 1)),), current_hash=""
        )
        there = dataclasses.replace(
            here, metadata_items=(item.with_storing_nodes((2,)),)
        )
        assert there.current_hash == here.current_hash and there.hash_is_valid()
        assert here._placement_digest() != there._placement_digest()
        assert "_placement_memo" in vars(here)
        for twin in (pickle.loads(pickle.dumps(here)), copy.deepcopy(here),
                     dataclasses.replace(here, hit=here.hit)):
            assert "_placement_memo" not in vars(twin)
            assert twin._placement_digest() == here._placement_digest()
        cold = dataclasses.replace(here, hit=here.hit)
        assert pickle.dumps(cold) == pickle.dumps(here)
        # One item on (0, 1) is not two items on (0,) and (1,).
        split = dataclasses.replace(
            child,
            metadata_items=(item.with_storing_nodes((0,)), item.with_storing_nodes((1,))),
        )
        assert split._placement_digest() != here._placement_digest()

    def test_stale_hash_on_a_copy_of_a_warm_block(self, child):
        assert child.hash_is_valid()
        tampered = dataclasses.replace(child, hit=child.hit + 1)
        assert tampered.current_hash == child.current_hash
        assert not tampered.hash_is_valid()
        assert not tampered.hash_is_valid()  # its own memo is of its own fields


class TestLinkage:
    def test_links_to_parent(self, genesis, child):
        assert child.links_to(genesis)

    def test_wrong_index_fails(self, genesis, child):
        wrong = dataclasses.replace(child, index=2, current_hash="")
        assert not wrong.links_to(genesis)

    def test_wrong_prev_hash_fails(self, genesis, child):
        wrong = dataclasses.replace(child, previous_hash="0" * 64, current_hash="")
        assert not wrong.links_to(genesis)

    def test_timestamp_before_parent_fails(self, genesis, child):
        late_genesis = make_genesis((0, 1, 2), 1.0, timestamp=100.0)
        assert not dataclasses.replace(
            child, previous_hash=late_genesis.current_hash, current_hash=""
        ).links_to(late_genesis)


class TestWireSize:
    def test_header_only(self, child):
        assert child.wire_size() == 256

    def test_grows_with_contents(self, genesis, account, child):
        item = create_metadata(account, 1, 0, 10.0).with_storing_nodes((0, 1))
        bigger = dataclasses.replace(
            child, metadata_items=(item,), storing_nodes=(0, 2), current_hash=""
        )
        assert bigger.wire_size() > child.wire_size()

    def test_typical_block_under_10kb(self, genesis, account, child):
        # Paper: "average block size is less than 10 KB" — 3 items/minute at
        # a 60 s interval ≈ 3 items per block.
        items = tuple(
            create_metadata(account, 1, i, 10.0).with_storing_nodes((0, 1, 2))
            for i in range(3)
        )
        block = dataclasses.replace(child, metadata_items=items, current_hash="")
        assert block.wire_size() < 10_000


class TestValidation:
    def test_negative_index_rejected(self, genesis, account):
        with pytest.raises(ValueError):
            Block(
                index=-1,
                timestamp=0.0,
                previous_hash=genesis.current_hash,
                pos_hash="ab",
                miner=0,
                miner_address=account.address,
                hit=0,
                target_b=1.0,
            )

    def test_negative_hit_rejected(self, genesis, account):
        with pytest.raises(ValueError):
            Block(
                index=1,
                timestamp=0.0,
                previous_hash=genesis.current_hash,
                pos_hash="ab",
                miner=0,
                miner_address=account.address,
                hit=-1,
                target_b=1.0,
            )
