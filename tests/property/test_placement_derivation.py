"""One placement rule: what the miner writes is what a validator derives.

``EdgeNode._build_block`` fills a block with
:func:`repro.core.validation.derive_placement`, and
:func:`~repro.core.validation.verify_block_allocations` derives it again.
A node with ``validate_allocations`` on hands that check to its chain,
which runs it on every block it would append — before the shared-ledger
shortcut — and refuses a mismatch as ``bad_allocation`` charging nobody.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockchain import _SHARED
from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.messages import BlockResponse, ChainResponse
from repro.core.validation import verify_block_allocations
from repro.sim.cluster import build_cluster
from repro.sim.runner import ExperimentSpec, run_experiment
from tests.helpers import mine_next

SEEDS = (1, 2, 3, 4)
NODES = 6


@functools.lru_cache(maxsize=None)
def _mined(seed):
    """A static-topology run's longest-chain node, and its cluster."""
    config = SystemConfig(data_items_per_minute=6.0, expected_block_interval=15.0)
    spec = ExperimentSpec(
        node_count=NODES,
        config=config,
        seed=seed,
        duration_minutes=8,
        mobility_epoch_minutes=0,
    )
    cluster = run_experiment(spec).cluster
    return cluster, cluster.longest_chain_node()


def _violations(cluster, node, block):
    """``verify_block_allocations`` of ``block`` on the state before it."""
    return verify_block_allocations(
        block,
        node.chain._replica_at(block.index - 1).state,
        cluster.allocator,
        cluster.topology.hop_matrix(),
        node.mobility_ranges,
        node.config.storage_capacity,
    )


@pytest.mark.fastpath
class TestDerivation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_mined_block_verifies(self, seed):
        cluster, node = _mined(seed)
        blocks = node.chain.blocks[1:]
        assert len(blocks) >= 10
        assert sum(len(block.metadata_items) for block in blocks) >= 20
        for block in blocks:
            assert _violations(cluster, node, block) == []

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_changing_one_set_fails_on_that_set_alone(self, data):
        cluster, node = _mined(data.draw(st.sampled_from(SEEDS), label="seed"))
        block = data.draw(st.sampled_from(node.chain.blocks[1:]), label="block")
        target = data.draw(
            st.sampled_from(
                ["block", "recent"] + list(range(len(block.metadata_items)))
            ),
            label="target",
        )
        if target == "block":
            current, expected = block.storing_nodes, "block storage"
        elif target == "recent":
            current, expected = block.recent_cache_nodes, "recent cache"
        else:
            item = block.metadata_items[target]
            current, expected = item.storing_nodes, f"data {item.data_id[:8]}"
        changed = tuple(
            sorted(
                data.draw(
                    st.frozensets(st.sampled_from(range(NODES))).filter(
                        lambda nodes: sorted(nodes) != sorted(current)
                    ),
                    label="changed",
                )
            )
        )
        if target == "block":
            forged = dataclasses.replace(block, storing_nodes=changed)
        elif target == "recent":
            forged = dataclasses.replace(block, recent_cache_nodes=changed)
        else:
            items = list(block.metadata_items)
            items[target] = items[target].with_storing_nodes(changed)
            forged = dataclasses.replace(block, metadata_items=tuple(items))
        # The derivation never reads the claimed sets, so one changed set
        # is one violation: nothing cascades onto the decisions after it.
        violations = _violations(cluster, node, forged)
        assert len(violations) == 1
        assert violations[0].startswith(expected)


VALIDATING = SystemConfig(
    storage_capacity=60,
    expected_block_interval=15.0,
    data_items_per_minute=0.0,
    recent_cache_capacity=4,
    validate_allocations=True,
)
PRUNING = dataclasses.replace(
    VALIDATING,
    checkpoint_interval=2,
    checkpoint_lag=1,
    lifecycle=LifecycleSpec(retain_blocks=3),
)
CRONY = 2


def _accounts(cluster):
    return {node_id: node.account for node_id, node in cluster.nodes.items()}


def _self_dealing(chain, cluster):
    """A PoS-valid child of ``chain``'s tip by ``CRONY`` that stores the
    block and caches it only on the crony."""
    return mine_next(
        chain, _accounts(cluster), CRONY, storing=(CRONY,), recent=(CRONY,)
    )


class TestSharedTableDoesNotSkipTheCheck:
    @pytest.mark.parametrize("path", ["announce", "sync_buffer"])
    def test_honest_node_refuses_a_crony_block_already_in_the_table(self, path):
        cluster = build_cluster(NODES, VALIDATING, seed=61)
        honest, crony = cluster.nodes[0], cluster.nodes[CRONY]
        block = _self_dealing(honest.chain, cluster)
        assert _violations(cluster, honest, block)
        # The crony's own chain accepts it (no check on a miner's own
        # block), which registers its ledgers for every chain on genesis.
        crony.chain.append_block(block)
        assert _SHARED.get(honest.chain._ledgers_key(block)) is not None
        if path == "announce":
            honest._on_block_announce(CRONY, block)
        else:
            honest._on_block_response(CRONY, BlockResponse(blocks=(block,)))
        assert honest.chain.height == 0
        assert honest.counters.blocks_rejected == 1
        assert honest.admission.rejections == {"bad_allocation": 1}
        assert honest.admission.scores == {}


class TestCandidateChainSuffix:
    @pytest.mark.parametrize("config", [VALIDATING, PRUNING], ids=["unpruned", "pruned"])
    def test_crony_block_in_suffix_refused_and_nobody_charged(self, config):
        cluster = build_cluster(NODES, config, seed=67)
        cluster.start()
        cluster.nodes[0].produce_data()
        cluster.engine.run_until(cluster.engine.now + 10 * 60.0)
        honest = cluster.nodes[0]
        chain = honest.chain
        fork = chain.height - 1
        assert fork > chain.first_retained_index
        assert fork >= chain.last_checkpoint()
        if config.lifecycle is not None:
            assert chain.first_retained_index > 0
        # The candidate shares our chain up to ``fork`` and is one block
        # longer: two self-dealing blocks, the first a fork point above
        # the anchor.
        candidate = chain._replica_at(fork)
        while candidate.height <= chain.height:
            candidate.append_block(_self_dealing(candidate, cluster))
        assert candidate.blocks[0].index == chain.first_retained_index
        tip, rejected = chain.tip, honest.counters.blocks_rejected
        rejections = dict(honest.admission.rejections)
        scores = dict(honest.admission.scores)
        honest._on_chain_response(CRONY, ChainResponse(blocks=tuple(candidate.blocks)))
        assert chain.tip is tip
        assert honest.counters.blocks_rejected == rejected + 1
        rejections["bad_allocation"] = rejections.get("bad_allocation", 0) + 1
        assert honest.admission.rejections == rejections
        assert honest.admission.scores == scores


class TestEveryNodeFull:
    @pytest.mark.parametrize("validate", [False, True], ids=["lax", "validating"])
    def test_run_completes_and_places_nowhere(self, validate):
        # Four 4-slot nodes fill within minutes at 6 items/min; from then
        # on no node has a free slot and an item is packed with no
        # storing node — by the miner and every validator alike.
        config = SystemConfig(
            storage_capacity=4,
            data_items_per_minute=6.0,
            expected_block_interval=10.0,
            validate_allocations=validate,
        )
        spec = ExperimentSpec(node_count=4, config=config, seed=1, duration_minutes=10)
        result = run_experiment(spec)
        nodes = list(result.cluster.nodes.values())
        chain = result.cluster.longest_chain_node().chain
        items = [item for block in chain.blocks for item in block.metadata_items]
        assert any(not item.storing_nodes for item in items)
        assert all(node.counters.blocks_rejected == 0 for node in nodes)
