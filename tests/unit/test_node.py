"""Unit tests for the EdgeNode protocol participant."""

import pytest

from repro.core.config import SystemConfig
from repro.sim.cluster import build_cluster


@pytest.fixture
def world(fast_config):
    cluster = build_cluster(5, fast_config, seed=11)
    return cluster


def run_blocks(cluster, count):
    """Advance the simulation until the longest chain reaches ``count``."""
    config = cluster.config
    deadline = cluster.engine.now + count * config.expected_block_interval * 20
    while cluster.engine.now < deadline:
        cluster.engine.run_until(
            min(cluster.engine.now + config.expected_block_interval, deadline)
        )
        if cluster.longest_chain_node().chain.height >= count:
            return
    raise AssertionError(f"chain did not reach height {count}")


class TestMining:
    def test_nodes_mine_blocks(self, world):
        world.start()
        run_blocks(world, 3)
        assert world.longest_chain_node().chain.height >= 3

    def test_all_nodes_converge(self, world):
        world.start()
        run_blocks(world, 3)
        world.engine.run_until(world.engine.now + 5.0)
        tips = {node.chain.tip.current_hash for node in world.nodes.values()}
        assert len(tips) == 1

    def test_mined_blocks_carry_valid_pos_claims(self, world):
        world.start()
        run_blocks(world, 3)
        chain = world.longest_chain_node().chain
        # Reconstruct an independent chain and replay: validation passes.
        from repro.core.blockchain import Blockchain

        replica = Blockchain(
            list(world.nodes.keys()), world.config, chain.address_of,
            genesis=chain.blocks[0],
        )
        for block in chain.blocks[1:]:
            replica.append_block(block)
        assert replica.height == chain.height

    def test_miner_counter_increments(self, world):
        world.start()
        run_blocks(world, 4)
        total_mined = sum(n.counters.blocks_mined for n in world.nodes.values())
        assert total_mined >= 4

    def test_every_node_keeps_last_block(self, world):
        world.start()
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 5.0)
        for node in world.nodes.values():
            assert node.storage.last_block is not None
            assert node.storage.last_block.index == node.chain.height


class TestDataFlow:
    def test_produce_broadcasts_metadata(self, world):
        world.start()
        producer = world.nodes[0]
        item = producer.produce_data(data_type="Test/Type")
        world.engine.run_until(world.engine.now + 1.0)
        for node_id, node in world.nodes.items():
            if node_id != 0:
                assert item.data_id in node.mempool

    def test_metadata_packed_into_block(self, world):
        world.start()
        item = world.nodes[0].produce_data()
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 5.0)
        chain = world.longest_chain_node().chain
        packed = chain.metadata_of(item.data_id)
        assert packed is not None
        assert packed.storing_nodes  # the miner filled in the placement

    def test_storing_nodes_fetch_payload(self, world):
        world.start()
        item = world.nodes[0].produce_data()
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 10.0)
        chain = world.longest_chain_node().chain
        packed = chain.metadata_of(item.data_id)
        served = sum(
            1
            for node_id in packed.storing_nodes
            if world.nodes[node_id].storage.can_serve(item.data_id)
        )
        assert served == len(packed.storing_nodes)

    def test_request_data_delivers(self, world):
        world.start()
        item = world.nodes[0].produce_data()
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 10.0)
        requester = world.nodes[4]
        before = len(requester.delivery_times)
        requester.request_data(item.data_id)
        world.engine.run_until(world.engine.now + 10.0)
        assert len(requester.delivery_times) == before + 1
        assert requester.counters.data_requests_failed == 0

    @pytest.mark.parametrize("forged", [(999,), (-1,)])
    def test_forged_placement_falls_back_to_producer(
        self, world, monkeypatch, forged
    ):
        # Placements are outside the block hash, so a relay can name a
        # node the cluster does not have; the requester must skip it.
        world.start()
        item = world.nodes[0].produce_data()
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 10.0)
        requester = world.nodes[4]
        metadata = requester.chain.metadata_of(item.data_id).with_storing_nodes(forged)
        monkeypatch.setattr(requester.chain, "metadata_of", lambda data_id: metadata)
        monkeypatch.setattr(requester.storage, "can_serve", lambda data_id: False)
        assert requester._candidates_for(metadata) == [forged[0], 0]
        before = len(requester.delivery_times)
        requester.request_data(item.data_id)
        world.engine.run_until(world.engine.now + 10.0)
        assert len(requester.delivery_times) == before + 1
        assert requester.counters.data_requests_failed == 0

    def test_request_unknown_data_fails_fast(self, world):
        world.start()
        requester = world.nodes[1]
        assert requester.request_data("no-such-id") is None
        assert requester.counters.data_requests_failed == 1

    def test_local_request_served_instantly(self, world):
        world.start()
        producer = world.nodes[0]
        item = producer.produce_data()
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 5.0)
        producer.request_data(item.data_id)
        assert producer.delivery_times[-1] == 0.0

    def test_expired_metadata_never_packed(self, world):
        world.start()
        item = world.nodes[0].produce_data(valid_time_minutes=0.001)
        run_blocks(world, 2)
        world.engine.run_until(world.engine.now + 5.0)
        # Expired 0.06 s after creation: no miner may pack it, and every
        # node prunes it from the mempool at the next tip change.
        chain = world.longest_chain_node().chain
        assert chain.metadata_of(item.data_id) is None
        for node in world.nodes.values():
            assert item.data_id not in node.mempool


class TestOfflineBehaviour:
    def test_offline_node_does_not_mine(self, world):
        world.start()
        world.network.set_online(3, False)
        run_blocks(world, 3)
        assert world.nodes[3].counters.blocks_mined == 0

    def test_reconnected_node_catches_up(self, world):
        world.start()
        run_blocks(world, 1)
        world.network.set_online(3, False)
        run_blocks(world, 4)
        world.network.set_online(3, True)
        world.nodes[3].on_reconnect()
        # The next block broadcast triggers gap recovery.
        target = world.longest_chain_node().chain.height
        world.engine.run_until(
            world.engine.now + world.config.expected_block_interval * 12
        )
        assert world.nodes[3].chain.height >= target

    def test_recovery_duration_recorded(self, world):
        world.start()
        run_blocks(world, 1)
        world.network.set_online(3, False)
        run_blocks(world, 4)
        world.network.set_online(3, True)
        world.nodes[3].on_reconnect()
        world.engine.run_until(
            world.engine.now + world.config.expected_block_interval * 12
        )
        assert world.nodes[3].counters.recoveries_completed >= 1
        assert world.nodes[3].sync.completed_durations
