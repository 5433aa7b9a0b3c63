"""Unit tests for the blockchain and chain state."""

import dataclasses

import pytest

from repro.core.account import Account
from repro.core.blockchain import Blockchain, BlockOutcome, ChainState
from repro.core.config import SystemConfig
from repro.core.errors import ChainLinkError, ConsensusError, ValidationError
from repro.core.metadata import create_metadata
from tests.helpers import mine_next, private_replay


@pytest.fixture
def config():
    return SystemConfig(
        storage_capacity=50,
        expected_block_interval=10.0,
        recent_cache_capacity=3,
        token_rescale_interval=5,
        token_rescale_ratio=0.5,
    )


@pytest.fixture
def world(config):
    """(config, accounts, address_of, chain) for a 4-node network."""
    accounts = {i: Account.for_node(7, i) for i in range(4)}
    address_of = {i: a.address for i, a in accounts.items()}
    chain = Blockchain(list(range(4)), config, address_of)
    return accounts, address_of, chain


class TestGenesisState:
    def test_initial_tokens(self, world, config):
        _, _, chain = world
        for node in range(4):
            assert chain.state.tokens(node) == config.initial_tokens

    def test_initial_stored_items_is_one(self, world):
        # "the number of data stored in a new node is also one" (Section V-A).
        _, _, chain = world
        for node in range(4):
            assert chain.state.stored_items(node, 0.0) == 1

    def test_initial_amendment(self, world, config):
        _, _, chain = world
        expected = config.hit_modulus / (5 * config.expected_block_interval * 1.0)
        assert chain.state.amendment(0.0) == pytest.approx(expected)


class TestAppend:
    def test_valid_block_appends(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        chain.append_block(block)
        assert chain.height == 1
        assert chain.tip is block

    def test_miner_earns_token(self, world, config):
        accounts, _, chain = world
        chain.append_block(mine_next(chain, accounts, miner=2))
        assert chain.state.tokens(2) == config.initial_tokens + config.mining_incentive

    def test_storing_nodes_earn_incentive_and_slots(self, world, config):
        accounts, _, chain = world
        chain.append_block(mine_next(chain, accounts, miner=2, storing=(1, 3)))
        assert chain.state.tokens(1) == config.initial_tokens + config.storage_incentive
        assert chain.state.stored_items(1, chain.tip.timestamp) == 2  # tip + block

    def test_metadata_assignment_counts_until_expiry(self, world, config):
        accounts, _, chain = world
        item = create_metadata(
            accounts[0], 0, 0, created_at=0.0, valid_time_minutes=1.0
        ).with_storing_nodes((1,))
        chain.append_block(mine_next(chain, accounts, miner=2, metadata_items=[item]))
        at = chain.tip.timestamp
        assert chain.state.stored_items(1, at) == 2
        assert chain.state.stored_items(1, item.expires_at + 1) == 1

    def test_recent_cache_fifo(self, world, config):
        accounts, _, chain = world
        for _ in range(5):
            chain.append_block(mine_next(chain, accounts, miner=2, recent=(3,)))
        # Capacity 3: only the 3 newest blocks stay cached.
        assert len(chain.state.recent_cache_of(3)) == 3
        assert chain.state.recent_cache_of(3) == (3, 4, 5)

    def test_metadata_index(self, world):
        accounts, _, chain = world
        item = create_metadata(accounts[0], 0, 0, 0.0).with_storing_nodes((1,))
        chain.append_block(mine_next(chain, accounts, miner=1, metadata_items=[item]))
        assert chain.metadata_of(item.data_id) is not None
        assert chain.metadata_of("missing") is None

    def test_token_rescaling(self, world, config):
        accounts, _, chain = world
        tokens_before = None
        for i in range(config.token_rescale_interval):
            chain.append_block(mine_next(chain, accounts, miner=0))
            if i == config.token_rescale_interval - 2:
                tokens_before = chain.state.tokens(1)
        # Block index 5 (= interval) triggers the halving.
        assert chain.state.tokens(1) == pytest.approx(
            tokens_before * config.token_rescale_ratio
        )


class TestValidation:
    def test_wrong_parent_hash_rejected(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        bad = dataclasses.replace(block, previous_hash="0" * 64, current_hash="")
        with pytest.raises(ChainLinkError):
            chain.append_block(bad)

    def test_tampered_hash_rejected(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        bad = dataclasses.replace(block, hit=block.hit)  # keeps stale hash? no —
        # replace() preserves current_hash while we alter storing_nodes:
        bad = dataclasses.replace(block, storing_nodes=(0, 1))
        with pytest.raises(ValidationError):
            chain.append_block(bad)

    def test_forged_hit_rejected(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        forged = dataclasses.replace(block, hit=0, timestamp=block.timestamp, current_hash="")
        with pytest.raises(ConsensusError):
            chain.append_block(forged)

    def test_wrong_miner_address_rejected(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        forged = dataclasses.replace(
            block, miner_address=accounts[3].address, current_hash=""
        )
        with pytest.raises(ConsensusError):
            chain.append_block(forged)

    def test_wrong_amendment_rejected(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        forged = dataclasses.replace(block, target_b=block.target_b * 2, current_hash="")
        with pytest.raises(ConsensusError):
            chain.append_block(forged)

    def test_premature_timestamp_rejected(self, world):
        # Claiming the win before R_i caught up with the hit must fail.
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2)
        if block.timestamp - chain.tip.timestamp > 1:
            early = dataclasses.replace(
                block, timestamp=chain.tip.timestamp + 1.0, current_hash=""
            )
            with pytest.raises(ConsensusError):
                chain.append_block(early)

    def test_timestamp_not_after_parent_rejected(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2, timestamp=chain.tip.timestamp)
        with pytest.raises(ConsensusError):
            chain.append_block(block)

    def test_unknown_miner_rejected(self, world):
        accounts, address_of, chain = world
        block = mine_next(chain, accounts, miner=2)
        forged = dataclasses.replace(block, miner=99, current_hash="")
        with pytest.raises(ConsensusError):
            chain.append_block(forged)


class TestKnownBlockOnAnotherChain:
    """A block some chain already validated is re-checked where it matters.

    The per-node ledgers after a validated block are shared through
    ``repro.core.blockchain._SHARED``; linkage, hash and roster are still
    checked by every chain, and the key holds whatever else the verdict
    and the ledgers depend on.
    """

    @pytest.fixture
    def known(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, miner=2, storing=(1,))
        chain.append_block(block)
        return block

    def test_same_cluster_adopts_the_derived_state(self, world, config, known, monkeypatch):
        _, address_of, chain = world
        other = Blockchain(list(range(4)), config, address_of)
        monkeypatch.setattr(
            Blockchain, "validate_child", lambda self, block: pytest.fail("re-derived")
        )
        other.append_block(known)
        assert other.state._ledgers is chain.state._ledgers
        assert other.state is not chain.state  # index and storing map are per chain

    def test_different_roster_still_rejects(self, config, known):
        strangers = {i: Account.for_node(8, i).address for i in range(4)}
        other = Blockchain(list(range(4)), config, strangers)
        assert other.tip.current_hash == known.previous_hash  # same genesis
        with pytest.raises(ConsensusError, match="miner address does not match"):
            other.append_block(known)

    def test_different_hit_modulus_still_rejects(self, world, config, known):
        _, address_of, chain = world
        other = Blockchain(
            list(range(4)),
            dataclasses.replace(config, hit_modulus=2**32),
            address_of,
            genesis=chain.blocks[0],
        )
        with pytest.raises(ConsensusError, match="hit mismatch"):
            other.append_block(known)

    def test_forged_twin_under_the_known_hash_rejected(self, world, config, known):
        _, address_of, chain = world
        forged = dataclasses.replace(known, storing_nodes=(0, 1, 2))
        assert forged.current_hash == known.current_hash
        other = Blockchain(list(range(4)), config, address_of)
        with pytest.raises(ValidationError, match="hash mismatch"):
            other.append_block(forged)
        other.append_block(known)
        assert other.state._ledgers is chain.state._ledgers
        assert other.state.block_storing[1] == (1,)

    def test_twin_with_another_placement_derives_its_own_ledger(self, world, config):
        """Item placement is outside the block hash but inside the ledger.

        ``content_root`` hashes ``signing_payload()``, which leaves
        ``storing_nodes`` out, so a twin that moves an item to other nodes
        keeps a valid ``current_hash``.  Nothing else rejects it
        (``validate_allocations`` is off by default), so a chain that
        receives it must credit *its* nodes — as a private replay does —
        and the chains holding the original must not notice.
        """
        accounts, address_of, chain = world
        roster = list(range(4))
        item = create_metadata(accounts[0], 0, 0, created_at=0.0)
        original = mine_next(
            chain, accounts, miner=2, storing=(3,),
            metadata_items=[item.with_storing_nodes((0,))],
        )
        twin = dataclasses.replace(
            original, metadata_items=(item.with_storing_nodes((1,)),)
        )
        assert twin.current_hash == original.current_hash and twin.hash_is_valid()
        chain.append_block(original)
        other = Blockchain(roster, config, address_of)
        other.append_block(twin)
        assert other.state._ledgers is not chain.state._ledgers
        assert chain.state.tokens(0) > chain.state.tokens(1)
        assert other.state.tokens(1) > other.state.tokens(0)
        # Nodes 0 and 1 were interchangeable, so B and the next miner's
        # stake agree and one child is valid on both prefixes: the
        # difference has to be carried forward, not merged by its hash.
        child = mine_next(chain, accounts, miner=3)
        chain.append_block(child)
        other.append_block(child)
        assert other.state._ledgers is not chain.state._ledgers
        for party in (chain, other):
            oracle = private_replay(party.blocks, roster, config, address_of)
            assert party.chain_digest() == oracle.chain_digest()
            assert party.metadata_of(item.data_id) == oracle.metadata_of(item.data_id)
        assert chain.state.ledger_digest() != other.state.ledger_digest()
        # A third chain that saw the twin joins the twin's ledgers.
        third = Blockchain(roster, config, address_of)
        third.append_block(twin)
        third.append_block(child)
        assert third.state._ledgers is other.state._ledgers

    def test_forged_genesis_under_the_real_hash_stays_private(self, world, config):
        _, address_of, chain = world
        forged = dataclasses.replace(chain.blocks[0], storing_nodes=(0,))
        assert forged.current_hash == chain.blocks[0].current_hash
        other = Blockchain(list(range(4)), config, address_of, genesis=forged)
        assert other.state._ledgers is not chain.state._ledgers
        assert other.state.block_storing[0] == (0,)
        fresh = Blockchain(list(range(4)), config, address_of)
        assert fresh.state._ledgers is chain.state._ledgers
        assert fresh.state.block_storing[0] == (0, 1, 2, 3)


class TestConsiderBlock:
    def test_appended(self, world):
        accounts, _, chain = world
        assert chain.consider_block(mine_next(chain, accounts, 1)) is BlockOutcome.APPENDED

    def test_duplicate(self, world):
        accounts, _, chain = world
        block = mine_next(chain, accounts, 1)
        chain.consider_block(block)
        assert chain.consider_block(block) is BlockOutcome.DUPLICATE

    def test_stale_competitor(self, world):
        accounts, _, chain = world
        ours = mine_next(chain, accounts, 1)
        theirs = mine_next(chain, accounts, 2)
        chain.consider_block(ours)
        assert chain.consider_block(theirs) is BlockOutcome.STALE

    def test_gap_detected(self, world):
        accounts, _, chain = world
        b1 = mine_next(chain, accounts, 1)
        chain.append_block(b1)
        b2 = mine_next(chain, accounts, 2)
        chain.append_block(b2)
        # A fresh chain receiving b2 first sees a gap.
        fresh = Blockchain(list(range(4)), chain.config, chain.address_of)
        assert fresh.consider_block(b2) is BlockOutcome.GAP
        assert fresh.missing_indices(2) == [1, 2]


class TestConsiderChain:
    def test_adopts_longer_chain(self, world, config):
        accounts, address_of, chain = world
        other = Blockchain(list(range(4)), config, address_of)
        for _ in range(3):
            other.append_block(mine_next(other, accounts, 3))
        assert chain.consider_chain(other.blocks)
        assert chain.height == 3
        assert chain.tip.current_hash == other.tip.current_hash

    def test_rejects_shorter_or_equal(self, world, config):
        accounts, address_of, chain = world
        chain.append_block(mine_next(chain, accounts, 1))
        other = Blockchain(list(range(4)), config, address_of)
        other.append_block(mine_next(other, accounts, 2))
        assert not chain.consider_chain(other.blocks)
        assert chain.tip.miner == 1

    def test_rejects_different_genesis(self, world, config):
        accounts, address_of, chain = world
        other_config = dataclasses.replace(config, expected_block_interval=99.0)
        other = Blockchain(list(range(4)), other_config, address_of)
        other.append_block(mine_next(other, accounts, 2))
        other.append_block(mine_next(other, accounts, 2))
        with pytest.raises(ValidationError):
            chain.consider_chain(other.blocks)

    def test_rejects_invalid_candidate(self, world):
        accounts, _, chain = world
        good = mine_next(chain, accounts, 1)
        forged = dataclasses.replace(good, hit=0, current_hash="")
        candidate = [chain.blocks[0], forged, good]
        with pytest.raises(ValidationError):
            chain.consider_chain(candidate)


class TestChainStateGuards:
    def test_out_of_order_apply_rejected(self, world, config):
        accounts, _, chain = world
        block = mine_next(chain, accounts, 1)
        state = ChainState(range(4), config)
        with pytest.raises(ValueError):
            state.apply_block(block)  # genesis not applied yet

    def test_storage_snapshot(self, world):
        accounts, _, chain = world
        chain.append_block(mine_next(chain, accounts, 1, storing=(0, 1)))
        snapshot = chain.state.storage_snapshot(chain.tip.timestamp)
        assert snapshot[0] == 2 and snapshot[1] == 2
        assert snapshot[2] == 1 and snapshot[3] == 1
