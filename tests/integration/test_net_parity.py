"""Live-network integration tests: sim/live parity and fault survival.

Marked ``net``: these open real localhost sockets and run compressed
wall-clock experiments (a few seconds each at the default time scale),
so CI runs them in a dedicated job with a hard timeout.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.core import messages as m
from repro.core.account import Account
from repro.core.blockchain import Blockchain
from repro.core.config import PAPER_CONFIG
from repro.net.harness import (
    KillSpec,
    LiveSpec,
    parity_report,
    run_live_experiment,
)
from repro.net.peer import PeerManager
from repro.net.router import SocketNetwork
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Position, Topology
from repro.simnet.transport import Network

pytestmark = pytest.mark.net


def _config(block_interval=60.0):
    return replace(
        PAPER_CONFIG,
        data_items_per_minute=1.0,
        expected_block_interval=block_interval,
    )


class TestChainDigestParity:
    def test_live_cluster_matches_simnet_digest(self):
        # The parity oracle: the same seeded workload, run once on the
        # simulated transport and once over real sockets, must converge
        # to the identical chain digest on every node.
        spec = LiveSpec(
            node_count=4,
            config=_config(),
            seed=7,
            duration_minutes=5.0,
            time_scale=0.02,
        )
        report = parity_report(spec)
        assert report["live_digests_agree"], report
        assert report["workload_mismatches"] == 0, report
        assert report["match"], (
            f"sim digest {report['sim_digest']} != live {report['live_digest']}"
        )
        assert report["sim_height"] == report["live_height"] > 0

    def test_parity_report_rejects_kill_spec(self):
        spec = LiveSpec(
            node_count=4,
            config=_config(),
            kill=KillSpec(node_id=1, at_minutes=1.0, down_minutes=1.0),
        )
        with pytest.raises(ValueError):
            parity_report(spec)


class TestBroadcastParity:
    """Simnet spanning-tree and live fan-out deliver the same handler set."""

    @staticmethod
    def _sim_delivered(payload):
        engine = EventEngine(seed=1)
        # A 4-node line: broadcast must relay beyond direct neighbours.
        topology = Topology(
            [Position(50.0 * i, 0.0) for i in range(4)], comm_range=70.0
        )
        network = Network(engine, topology)
        delivered = []
        for node in range(4):
            network.register(
                node,
                lambda source, msg, category, node=node: delivered.append(
                    (node, source, msg.origin, category)
                ),
            )
        reached = network.broadcast(
            0, payload, payload.wire_size(), m.CATEGORY_CHAIN_SYNC
        )
        engine.run_until(60.0)
        return reached, sorted(delivered)

    @staticmethod
    def _live_delivered(payload):
        async def run():
            accounts = {i: Account.for_node(1, i) for i in range(4)}
            address_of = {i: a.address for i, a in accounts.items()}
            genesis = Blockchain(list(range(4)), _config(), address_of).block_at(0)
            delivered = []
            managers = []
            networks = []
            for node in range(4):
                def on_message(peer_id, frame, node=node):
                    networks[node].deliver_frame(peer_id, frame)

                manager = PeerManager(node, genesis.current_hash, on_message)
                managers.append(manager)
                network = SocketNetwork(node, 4, manager)
                network.register(
                    node,
                    lambda source, msg, category, node=node: delivered.append(
                        (node, source, msg.origin, category)
                    ),
                )
                networks.append(network)
            try:
                for manager in managers:
                    await manager.start()
                for low in range(4):
                    for high in range(low + 1, 4):
                        managers[low].dial(
                            high, managers[high].host, managers[high].port
                        )
                for low in range(4):
                    await managers[low].wait_connected(
                        list(range(low + 1, 4)), timeout=10.0
                    )
                reached = networks[0].broadcast(
                    0, payload, payload.wire_size(), m.CATEGORY_CHAIN_SYNC
                )
                deadline = asyncio.get_running_loop().time() + 5.0
                while len(delivered) < 3:
                    if asyncio.get_running_loop().time() > deadline:
                        break
                    await asyncio.sleep(0.01)
                return reached, sorted(delivered)
            finally:
                for manager in managers:
                    await manager.close()

        return asyncio.run(run())

    def test_same_delivered_set(self):
        payload = m.ChainRequest(origin=0)
        sim_reached, sim_delivered = self._sim_delivered(payload)
        live_reached, live_delivered = self._live_delivered(payload)
        # Every node except the source hears the message exactly once,
        # with an identical (receiver, source, body, category) tuple —
        # whether it travelled a BFS spanning tree or a socket mesh.
        assert sim_reached == live_reached == 3
        assert sim_delivered == live_delivered
        assert sim_delivered == [
            (node, 0, 0, m.CATEGORY_CHAIN_SYNC) for node in (1, 2, 3)
        ]


class TestKillRestartSurvival:
    def test_eight_node_cluster_survives_kill_and_resyncs(self):
        # The acceptance scenario: one node is killed mid-run and
        # restarted with an empty chain; the cluster must reconnect,
        # chain-sync it back, and end prefix-consistent.
        spec = LiveSpec(
            node_count=8,
            config=_config(),
            seed=5,
            duration_minutes=6.0,
            time_scale=0.02,
            kill=KillSpec(node_id=3, at_minutes=2.0, down_minutes=1.5),
        )
        result = run_live_experiment(spec)
        assert result.restarted == (3,)
        assert result.resynced, result.summary()
        assert result.reconnects > 0
        assert result.prefix_consistent, result.summary()
        assert result.max_lag <= 1, result.summary()
        assert result.workload_mismatches == 0
        assert result.healthy, result.summary()
        assert result.chain_height > 0


class TestMultiProcessCluster:
    def test_live_run_procs_agrees_on_one_chain(self, capsys):
        # One OS process per node on a fixed port range: each child
        # hosts its node in a LiveClusterHarness and prints its result
        # line, and the parent judges the chains by the harness's rule.
        from repro.cli import main

        argv = [
            "live", "run", "--procs", "--nodes", "3", "--minutes", "1",
            "--block-interval", "30", "--start-lead", "4", "--base-port", "46740",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "chain digests agree across processes: True" in output
        assert "healthy: True (prefix consistent: True, max lag: 0" in output
