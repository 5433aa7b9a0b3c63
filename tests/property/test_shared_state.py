"""Shared derived ledgers vs one private ledger per chain.

Production chains take the per-node ledgers another chain of the process
already derived for the same block on the same prefix
(``repro.core.blockchain._SHARED``); :class:`tests.helpers.PrivateChain`
is the chain as it stood before — own ledgers, full ``validate_child``
and an in-place ``apply_block`` per chain.  Everything a chain can be
asked must read the same in both worlds:

* **Differential** — Hypothesis scripts of blocks with one-block forks,
  followers that fall behind and adopt through ``consider_chain`` (from
  genesis and, once pruned, anchored through ``_replica_at``) and a late
  joiner, every chain compared with a private replay of its own history.
* **Adoption** — ``consider_chain`` validates only the suffix it does
  not hold, yet answers as a private replay of the adopted chain from
  genesis: forks of every depth below, at and above the last checkpoint,
  on unpruned and pruned chains, with same-hash twins and forged hashes
  in the shared prefix.
* **Aliasing** — siblings on one parent, ledgers held at an old tip
  while other chains move on, same-hash twins that place an item
  elsewhere, and the weak table living exactly as long as the chains
  that retain its prefixes.
* **Lifecycle** — what a chain prunes is its own: chains on one tip with
  different prune floors, and a pruning, churning cluster stepped in
  lock-step with its private-chain twin.
"""

from __future__ import annotations

import copy
import gc
from dataclasses import replace
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.core import blockchain as blockchain_module
from repro.core.account import Account
from repro.core.blockchain import Blockchain
from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.errors import (
    ChainLinkError,
    CheckpointError,
    ConsensusError,
    ValidationError,
)
from repro.core.metadata import create_metadata
from repro.lifecycle.spec import hot_bound_blocks
from repro.sim.runner import ExperimentSpec, build_runtime
from tests.helpers import (
    PrivateChain,
    make_config,
    mine_next,
    private_chains,
    private_replay,
)
from tests.property.test_fastpath_equivalence import SCENARIOS

pytestmark = pytest.mark.fastpath

NODES = 5
NODE_IDS = list(range(NODES))
ACCOUNTS = {i: Account.for_node(23, i) for i in NODE_IDS}
ADDRESS_OF = {i: account.address for i, account in ACCOUNTS.items()}

#: Rescaling every 4 blocks and a 2-deep recent cache so short scripts
#: reach both; items live 2 minutes so some expire inside a script.
CONFIG = SystemConfig(
    expected_block_interval=10.0,
    recent_cache_capacity=2,
    token_rescale_interval=4,
    default_valid_time_minutes=2.0,
)
#: The same with pruning, horizon moving every second block.
PRUNING_CONFIG = replace(
    CONFIG,
    checkpoint_interval=2,
    checkpoint_lag=1,
    lifecycle=LifecycleSpec(retain_blocks=3),
)


def assert_same_answers(chain: Blockchain, oracle: Blockchain) -> None:
    """Every query the protocol makes of a chain, on both."""
    assert chain.chain_digest() == oracle.chain_digest()
    assert chain.state.ledger_digest() == oracle.state.ledger_digest()
    assert chain.first_retained_index == oracle.first_retained_index
    now = chain.tip.timestamp
    assert chain.state.amendment(now) == oracle.state.amendment(now)
    for node in chain.node_ids:
        assert chain.state.stored_items(node, now) == oracle.state.stored_items(node, now)
        assert chain.state.tokens(node) == oracle.state.tokens(node)
    assert chain.state.metadata_index == oracle.state.metadata_index
    assert chain.state.block_storing == oracle.state.block_storing


node_sets = st.lists(st.sampled_from(NODE_IDS), max_size=3, unique=True).map(tuple)

#: One script step: the miner and what its block assigns; whether the
#: first follower is served a same-hash twin that places the item on other
#: nodes; whether a rival block is mined on the same parent; which
#: followers hear of the block.
steps = st.fixed_dictionaries(
    dict(
        miner=st.sampled_from(NODE_IDS),
        storing=node_sets,
        recent=node_sets,
        item_storers=st.one_of(st.none(), node_sets),
        twin_storers=st.one_of(st.none(), node_sets),
        rival=st.one_of(st.none(), st.sampled_from(NODE_IDS)),
        heard_by=st.lists(st.booleans(), min_size=3, max_size=3),
    )
)


class _Follower:
    """A production chain plus the full history a private replay needs."""

    def __init__(self, config):
        self.chain = Blockchain(NODE_IDS, config, ADDRESS_OF)
        self.history = list(self.chain.blocks)

    def offer(self, block) -> None:
        """What a node does with an announced block (forks wait for sync)."""
        try:
            self.chain.consider_block(block)
        except (ChainLinkError, ConsensusError):
            return  # on a fork, or on a twin's ledgers where B moved
        if self.chain.tip is block:
            self.history.append(block)
            self.chain.maybe_prune()

    def sync(self, leader: "_Follower") -> None:
        """Longest-chain adoption of whatever bodies the leader retains."""
        try:
            adopted = self.chain.consider_chain(list(leader.chain.blocks))
        except ValidationError:
            return  # e.g. our fork sits below a checkpoint: stay on it
        if adopted:
            self.history = list(leader.history)
            self.chain.maybe_prune()

    def oracle(self) -> PrivateChain:
        oracle = PrivateChain(
            NODE_IDS, self.chain.config, ADDRESS_OF, genesis=self.history[0]
        )
        for block in self.history[1:]:
            oracle.append_block(block)
            oracle.maybe_prune()
        return oracle


def _run_script(config, script):
    leader = _Follower(config)
    followers = [_Follower(config) for _ in range(3)]
    sequence = 0
    for step in script:
        items = ()
        if step["item_storers"] is not None:
            sequence += 1
            items = (
                create_metadata(
                    ACCOUNTS[step["miner"]],
                    step["miner"],
                    sequence,
                    created_at=leader.chain.tip.timestamp,
                    valid_time_minutes=config.default_valid_time_minutes,
                ).with_storing_nodes(step["item_storers"]),
            )
        block = mine_next(
            leader.chain,
            ACCOUNTS,
            step["miner"],
            metadata_items=items,
            storing=step["storing"],
            recent=step["recent"],
        )
        rival = None
        if step["rival"] is not None and step["rival"] != step["miner"]:
            rival = mine_next(leader.chain, ACCOUNTS, step["rival"], storing=(0,))
        twin = None
        if items and step["twin_storers"] not in (None, step["item_storers"]):
            # Placement is outside the hash: valid, yet another ledger.
            twin = replace(
                block,
                metadata_items=(items[0].with_storing_nodes(step["twin_storers"]),),
            )
            assert twin.hash_is_valid() and twin.current_hash == block.current_hash
        leader.offer(block)
        assert leader.chain.tip is block
        for index, (follower, heard) in enumerate(zip(followers, step["heard_by"])):
            if heard and index == 0 and twin is not None:
                follower.offer(twin)
            elif heard:
                # The last follower hears the rival first: a one-block fork
                # it can only leave through consider_chain.
                if rival is not None and index == len(followers) - 1:
                    follower.offer(rival)
                follower.offer(block)
            elif follower.chain.height + 3 <= leader.chain.height:
                follower.sync(leader)
    return leader, followers


class TestDifferentialAgainstPrivateReplay:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(steps, min_size=1, max_size=14))
    def test_forks_and_adoption_from_genesis(self, script):
        leader, followers = _run_script(CONFIG, script)
        joiner = _Follower(CONFIG)
        joiner.sync(leader)
        for party in [leader, joiner, *followers]:
            assert_same_answers(party.chain, party.oracle())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(steps, min_size=6, max_size=18))
    def test_pruned_chains_and_anchored_adoption(self, script):
        leader, followers = _run_script(PRUNING_CONFIG, script)
        for follower in followers:
            if 0 < follower.chain.first_retained_index and (
                follower.chain.height < leader.chain.height
            ):
                follower.sync(leader)  # anchored: replays from _replica_at
        for party in [leader, *followers]:
            assert_same_answers(party.chain, party.oracle())

    def test_anchored_adoption_is_reached(self):
        """The script shape above does drive ``_replica_at`` (not vacuous)."""
        leader = _Follower(PRUNING_CONFIG)
        follower = _Follower(PRUNING_CONFIG)
        for step in range(12):
            block = mine_next(leader.chain, ACCOUNTS, step % NODES, storing=(1,))
            leader.offer(block)
            if step < 8:
                follower.offer(block)
        assert 0 < follower.chain.first_retained_index < leader.chain.first_retained_index
        follower.sync(leader)
        assert follower.chain.height == leader.chain.height
        assert follower.chain.state._ledgers is leader.chain.state._ledgers
        assert_same_answers(follower.chain, follower.oracle())


#: Checkpoints every second block on an unpruned chain.
CHECKPOINT_CONFIG = replace(CONFIG, checkpoint_interval=2, checkpoint_lag=1)


def _mine(chain, rng, sequence):
    """A valid child of ``chain``'s tip that packs one placed item."""
    miner = rng.randrange(NODES)
    item = create_metadata(
        ACCOUNTS[miner],
        miner,
        sequence,
        created_at=chain.tip.timestamp,
        valid_time_minutes=chain.config.default_valid_time_minutes,
    ).with_storing_nodes(tuple(rng.sample(NODE_IDS, 2)))
    return mine_next(
        chain,
        ACCOUNTS,
        miner,
        metadata_items=(item,),
        storing=(rng.randrange(NODES),),
        recent=(rng.randrange(NODES),),
    )


def _outcome(call, *args):
    try:
        return call(*args)
    except ValidationError as error:
        return type(error)


def _replayed(blocks, config, prune=True):
    """The private chain a node replaying ``blocks`` from genesis holds."""
    oracle = PrivateChain(NODE_IDS, config, ADDRESS_OF, genesis=blocks[0])
    for block in blocks[1:]:
        oracle.append_block(block)
        if prune:
            oracle.maybe_prune()
    return oracle


class TestAdoptionAgainstGenesisReplay:
    """``consider_chain`` validates only the suffix it does not hold.

    Its answer — adopted or not, the exception type, and every query of
    the chain after it — must be what a node replaying the adopted chain
    from genesis on private ledgers derives: our own bodies through the
    candidate's first block (the anchor is always ours), then the
    candidate's.  Forks of every depth land below, at and above the last
    checkpoint; a prefix block may be the same-hash twin that places its
    item on other nodes, or a copy with a forged ``current_hash``.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        config=st.sampled_from([CONFIG, CHECKPOINT_CONFIG, PRUNING_CONFIG]),
        height=st.integers(min_value=3, max_value=12),
        where=st.sampled_from(["below", "at", "above"]),
        pick=st.floats(min_value=0.0, max_value=1.0),
        longer_by=st.integers(min_value=1, max_value=3),
        tamper=st.sampled_from([None, "twin", "forged"]),
        tamper_pick=st.floats(min_value=0.0, max_value=1.0),
        start_pick=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_adoption_is_the_genesis_replay(
        self, config, height, where, pick, longer_by, tamper, tamper_pick,
        start_pick, seed,
    ):
        rng = Random(seed)
        leader = Blockchain(NODE_IDS, config, ADDRESS_OF)
        ours = Blockchain(NODE_IDS, config, ADDRESS_OF)
        for sequence in range(height):
            block = _mine(leader, rng, sequence)
            leader.append_block(block)
            ours.append_block(block)
            ours.maybe_prune()
        history = list(leader.blocks)
        checkpoint = ours.last_checkpoint()
        # The fork point: the first index the candidate mines afresh.
        low, high = {
            "below": (1, checkpoint - 1),
            "at": (checkpoint, checkpoint),
            "above": (checkpoint + 1, height),
        }[where]
        low = max(low, 1)
        assume(low <= high)
        fork = low + int(pick * (high - low))
        rival = _replayed(history[:fork], config, prune=False)
        for sequence in range(height - fork + 1 + longer_by):
            rival.append_block(_mine(rival, rng, 1000 + sequence))
        candidate = list(rival.blocks)
        mined = fork  # the first block whose hash is not ours
        if tamper is not None and fork > 1:
            at = 1 + int(tamper_pick * (fork - 2))
            block = candidate[at]
            if tamper == "twin":
                item = block.metadata_items[0]
                others = tuple(n for n in NODE_IDS if n not in item.storing_nodes)[:2]
                candidate[at] = replace(
                    block, metadata_items=(item.with_storing_nodes(others),)
                )
                assert candidate[at].hash_is_valid()
            else:
                candidate[at] = replace(
                    block,
                    storing_nodes=((block.storing_nodes[0] + 1) % NODES,),
                    current_hash=block.current_hash,
                )
                assert not candidate[at].hash_is_valid()
            assert candidate[at] != block
            fork = min(fork, at)
        start = 0
        if config.lifecycle is not None:
            start = int(start_pick * (fork - 1))
        anchor = max(start, ours.first_retained_index)
        # A tampered block at or below our anchor is never compared by
        # body (the anchor is ours), so the divergence is the mined block.
        diverges = fork if fork > anchor else mined

        def held():
            state = ours.state
            return ours.blocks, ours.chain_digest(), state.metadata_index, state.block_storing

        before = tuple(map(copy.copy, held()))
        validated = []
        validate_child = Blockchain.validate_child

        def counted(chain, block):
            validated.append(block.index)
            return validate_child(chain, block)

        with mock.patch.object(Blockchain, "validate_child", counted):
            outcome = _outcome(ours.consider_chain, candidate[start:])
        event(f"{where} checkpoint, {tamper}: {getattr(outcome, '__name__', outcome)}")
        # Only what we did not hold is validated, and all of it in order
        # from the fork point until the first refusal.
        assert validated == list(range(diverges, diverges + len(validated)))

        expected = history[: anchor + 1] + candidate[anchor + 1 :]
        if mined <= checkpoint:
            assert outcome is CheckpointError
        else:
            oracle = _outcome(_replayed, expected, config)
            if isinstance(oracle, type):
                assert outcome is oracle
            else:
                assert outcome is True
                assert validated == list(range(diverges, candidate[-1].index + 1))
                ours.maybe_prune()
                assert ours.blocks == oracle.blocks
                assert_same_answers(ours, oracle)
                return
        assert held() == before  # a refused candidate leaves no trace


class TestAliasing:
    def test_siblings_never_see_each_others_credits(self):
        left = Blockchain(NODE_IDS, CONFIG, ADDRESS_OF)
        right = Blockchain(NODE_IDS, CONFIG, ADDRESS_OF)
        parent = mine_next(left, ACCOUNTS, 0, storing=(1,))
        left.append_block(parent)
        right.append_block(parent)
        assert left.state._ledgers is right.state._ledgers  # derived once per prefix
        before = left.state.ledger_digest()
        a = mine_next(left, ACCOUNTS, 1, storing=(2,), recent=(2,))
        b = mine_next(right, ACCOUNTS, 3, storing=(4,), recent=(4,))
        held = left.state.clone()  # a third holder of the parent's ledgers
        left.append_block(a)
        right.append_block(b)
        assert held.ledger_digest() == before
        assert left.state._ledgers is not right.state._ledgers
        assert_same_answers(left, private_replay(left.blocks, NODE_IDS, CONFIG, ADDRESS_OF))
        assert_same_answers(right, private_replay(right.blocks, NODE_IDS, CONFIG, ADDRESS_OF))
        assert left.state.tokens(4) == CONFIG.initial_tokens
        assert right.state.tokens(2) == CONFIG.initial_tokens

    def test_state_at_an_old_tip_survives_fifty_chains_moving_on(self):
        laggard = Blockchain(NODE_IDS, CONFIG, ADDRESS_OF)
        others = [Blockchain(NODE_IDS, CONFIG, ADDRESS_OF) for _ in range(50)]
        first = mine_next(laggard, ACCOUNTS, 2, storing=(0, 3), recent=(1,))
        for chain in [laggard, *others]:
            chain.append_block(first)
        before = laggard.state.ledger_digest()
        amendment = laggard.state.amendment(first.timestamp)
        for step in range(9):  # past two rescales
            block = mine_next(others[0], ACCOUNTS, step % NODES, storing=(step % NODES,))
            for chain in others:
                chain.append_block(block)
        assert laggard.height == 1
        assert laggard.state.ledger_digest() == before
        assert laggard.state.amendment(first.timestamp) == amendment
        assert_same_answers(
            laggard, private_replay(laggard.blocks, NODE_IDS, CONFIG, ADDRESS_OF)
        )

    def test_weak_table_empties_with_its_chains(self):
        for base in (CONFIG, PRUNING_CONFIG):
            # A config no other test uses, so only these chains own the entries.
            config = replace(base, storage_capacity=61)
            bound = hot_bound_blocks(config)

            def entries():
                gc.collect()
                return [key for key in blockchain_module._SHARED.keys() if config in key]

            chains = [Blockchain(NODE_IDS, config, ADDRESS_OF) for _ in range(4)]
            for step in range(12):
                block = mine_next(chains[0], ACCOUNTS, step % NODES)
                for chain in chains:
                    chain.append_block(block)
                    chain.maybe_prune()
                if bound is None:
                    # The ledgers after every retained block, plus the genesis.
                    assert len(entries()) == chains[0].retained_blocks + 1
                else:
                    assert len(entries()) <= bound + 1
            assert bound is None or chains[0].first_retained_index > 0
            del chains, chain, block
            assert entries() == []


class TestLifecycleOnSharedState:
    """Chains share ledgers, never what they prune.

    ``prune_below`` drops entries of ``metadata_index`` and
    ``block_storing`` in place.  Those two maps belong to one
    :class:`ChainState`, and every chain has its own, so a chain answers
    ``metadata_of`` / ``block_storing`` by its own pruning history alone —
    whatever floor a durable run's journal holds a peer at.
    """

    def test_chains_on_one_tip_with_different_prune_floors(self):
        """A binding ``prune_floor_limit`` on one chain is invisible to the rest.

        ``run_persistent`` raises the limit on journal ticks, so between
        two nodes' appends of one block the floor can differ; each chain
        must keep exactly what its private twin keeps.
        """
        free = Blockchain(NODE_IDS, PRUNING_CONFIG, ADDRESS_OF)
        held_back = Blockchain(NODE_IDS, PRUNING_CONFIG, ADDRESS_OF)
        twins = [
            PrivateChain(NODE_IDS, PRUNING_CONFIG, ADDRESS_OF) for _ in range(2)
        ]
        parties = [free, held_back, *twins]
        for chain in (held_back, twins[1]):
            chain.prune_floor_limit = 2
        for step in range(12):
            item = create_metadata(
                ACCOUNTS[0], 0, step, created_at=free.tip.timestamp,
                valid_time_minutes=0.5,
            ).with_storing_nodes((step % NODES,))
            block = mine_next(
                free, ACCOUNTS, step % NODES, metadata_items=(item,), storing=(1,)
            )
            for chain in parties:
                chain.append_block(block)
                chain.maybe_prune()
            if step == 7:  # the journal caught up: the floor moves
                for chain in (held_back, twins[1]):
                    chain.prune_floor_limit = 6
            assert free.state._ledgers is held_back.state._ledgers
            assert_same_answers(free, twins[0])
            assert_same_answers(held_back, twins[1])
        assert held_back.first_retained_index < free.first_retained_index
        assert len(held_back.state.block_storing) > len(free.state.block_storing)
        assert len(held_back.state.metadata_index) > len(free.state.metadata_index)

    @pytest.mark.lifecycle
    def test_pruning_cluster_matches_its_private_twin_at_every_tip(self):
        scenario = dict(SCENARIOS["lifecycle"])
        spec = ExperimentSpec(
            node_count=scenario.pop("node_count"),
            seed=scenario.pop("seed"),
            duration_minutes=scenario.pop("duration_minutes"),
            churn=scenario.pop("churn"),
            mobility_epoch_minutes=10.0,
            config=make_config(**scenario),
        )
        shared = build_runtime(spec)
        with private_chains():
            private = build_runtime(spec)
        tips_seen = set()
        when = 0.0
        while when < spec.duration_seconds:
            when += 5.0
            shared.engine.run_until(when)
            with private_chains():
                private.engine.run_until(when)
            by_tip = {}
            for node_id, node in shared.cluster.nodes.items():
                twin = private.cluster.nodes[node_id]
                assert isinstance(twin.chain, PrivateChain)
                assert node.chain.tip.current_hash == twin.chain.tip.current_hash
                assert node.chain.first_retained_index == twin.chain.first_retained_index
                assert node.chain.state.block_storing == twin.chain.state.block_storing
                assert node.chain.state.metadata_index == twin.chain.state.metadata_index
                peer = by_tip.setdefault(node.chain.tip.current_hash, node)
                assert node.chain.state.block_storing == peer.chain.state.block_storing
                assert node.chain.state.metadata_index == peer.chain.state.metadata_index
            tips_seen.update(by_tip)
        reference = shared.cluster.longest_chain_node().chain
        twin = private.cluster.longest_chain_node().chain
        assert reference.chain_digest() == twin.chain_digest()
        assert reference.height >= 120 and len(tips_seen) >= 120
        assert reference.first_retained_index >= 64  # the horizon did move
