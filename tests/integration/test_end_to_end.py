"""End-to-end integration tests of the full edge blockchain system."""

import pytest

from repro.core.blockchain import Blockchain
from repro.core.config import SystemConfig
from repro.sim.runner import ChurnSpec, ExperimentSpec, run_experiment


@pytest.fixture
def small_run(fixed_seed_run):
    """One shared 10-node 20-minute run (cached per module: runs take seconds)."""
    return fixed_seed_run(
        node_count=10, seed=21, duration_minutes=20, mobility_epoch_minutes=5.0
    )


class TestChainGrowth:
    def test_chain_grows_near_expected_rate(self, small_run):
        metrics = small_run.metrics
        # 20 min at 30 s/block → ~40 blocks; accept a generous band.
        assert 20 <= metrics.chain_height() <= 60

    def test_mean_interval_near_t0(self, small_run):
        interval = small_run.metrics.mean_block_interval()
        assert 0.5 * 30.0 <= interval <= 2.0 * 30.0

    def test_multiple_miners_win(self, small_run):
        mined = small_run.metrics.blocks_mined
        assert sum(1 for count in mined.values() if count > 0) >= 3


class TestConvergence:
    def test_all_nodes_on_same_chain(self, small_run):
        cluster = small_run.cluster
        cluster.engine.run_until(cluster.engine.now + 60.0)
        tips = {node.chain.tip.current_hash for node in cluster.nodes.values()}
        assert len(tips) == 1

    def test_chain_revalidates_independently(self, small_run):
        chain = small_run.cluster.longest_chain_node().chain
        replica = Blockchain(
            list(small_run.cluster.nodes.keys()),
            small_run.spec.config,
            chain.address_of,
            genesis=chain.blocks[0],
        )
        for block in chain.blocks[1:]:
            replica.append_block(block)
        assert replica.tip.current_hash == chain.tip.current_hash

    def test_packed_metadata_signatures_all_valid(self, small_run):
        chain = small_run.cluster.longest_chain_node().chain
        items = [
            item for block in chain.blocks for item in block.metadata_items
        ]
        assert items, "the workload should have produced packed items"
        assert all(item.verify_signature() for item in items)


class TestDataService:
    def test_most_requests_served(self, small_run):
        metrics = small_run.metrics
        served = len(metrics.delivery_times)
        assert served > 0
        assert metrics.failed_requests <= 0.1 * (served + metrics.failed_requests)

    def test_delivery_times_reasonable(self, small_run):
        metrics = small_run.metrics
        # Paper reports ≤ ~4 s; allow slack for retries.
        assert 0.0 <= metrics.average_delivery_time() < 10.0

    def test_every_packed_item_has_replicas(self, small_run):
        chain = small_run.cluster.longest_chain_node().chain
        for block in chain.blocks:
            for item in block.metadata_items:
                assert len(item.storing_nodes) >= 1


class TestFairness:
    def test_storage_gini_below_paper_bound(self, small_run):
        # Fig. 4(b): Gini below 0.15 across all settings.
        assert small_run.metrics.storage_gini() < 0.15

    def test_storage_capacity_respected(self, small_run):
        for node in small_run.cluster.nodes.values():
            assert node.storage.used_slots() <= node.storage.capacity


class TestTransmission:
    def test_traffic_is_accounted(self, small_run):
        metrics = small_run.metrics
        assert metrics.average_node_megabytes() > 0
        categories = metrics.category_bytes
        assert "block_broadcast" in categories
        assert "metadata_announce" in categories
        assert "data_dissemination" in categories

    def test_dissemination_dominates_broadcast(self, small_run):
        # 1 MB payloads dwarf <10 KB blocks.
        categories = small_run.metrics.category_bytes
        assert categories["data_dissemination"] > categories["block_broadcast"]


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        config = SystemConfig(
            storage_capacity=40, expected_block_interval=20.0,
            data_items_per_minute=1.0,
        )
        spec = ExperimentSpec(node_count=6, config=config, seed=77, duration_minutes=8)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.metrics.chain_height() == b.metrics.chain_height()
        assert a.metrics.per_node_bytes == b.metrics.per_node_bytes
        assert a.metrics.delivery_times == b.metrics.delivery_times
        chain_a = a.cluster.longest_chain_node().chain
        chain_b = b.cluster.longest_chain_node().chain
        assert chain_a.tip.current_hash == chain_b.tip.current_hash

    def test_different_seeds_differ(self):
        config = SystemConfig(expected_block_interval=20.0)
        a = run_experiment(ExperimentSpec(6, config, seed=1, duration_minutes=8))
        b = run_experiment(ExperimentSpec(6, config, seed=2, duration_minutes=8))
        chain_a = a.cluster.longest_chain_node().chain
        chain_b = b.cluster.longest_chain_node().chain
        assert chain_a.tip.current_hash != chain_b.tip.current_hash


class TestChurnRecovery:
    def test_churned_run_completes_and_recovers(self):
        config = SystemConfig(
            storage_capacity=60, expected_block_interval=20.0,
            data_items_per_minute=1.0, recent_cache_capacity=5,
        )
        spec = ExperimentSpec(
            node_count=10, config=config, seed=31, duration_minutes=15,
            churn=ChurnSpec(node_fraction=0.3, events_per_node=2.0,
                            mean_downtime_seconds=60.0),
        )
        result = run_experiment(spec)
        # Recoveries happened and finished.
        assert result.metrics.recovery_durations
        # After the run, bring-everyone-online convergence:
        cluster = result.cluster
        for node_id in cluster.node_ids:
            if not cluster.network.is_online(node_id):
                cluster.network.set_online(node_id, True)
                cluster.nodes[node_id].on_reconnect()
        cluster.engine.run_until(cluster.engine.now + 300.0)
        heights = {node.chain.height for node in cluster.nodes.values()}
        assert max(heights) - min(heights) <= 1
