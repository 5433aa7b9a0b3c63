"""The live agreement rule on hand-built chains, the ``--procs``
parent's exit code by that rule (children faked, no sockets), and what a
single live node does without a mesh: the data ids a restarted node
mints, and a child's exit when its peers never connect."""

import asyncio
import json
import subprocess
import time
from dataclasses import replace

import pytest

from repro.cli import main
from repro.net.harness import (
    ChainView,
    LiveClusterHarness,
    LiveNode,
    LiveSpec,
    build_workload,
    chain_agreement,
)
from repro.net.peer import PeerManager
from tests.helpers import make_config

TRUNK = ("g", "b1", "b2", "b3")


def view(*hashes):
    return ChainView(len(hashes) - 1, tuple(hashes))


class TestChainAgreement:
    def test_identical_chains_are_healthy(self):
        agreement = chain_agreement([view(*TRUNK), view(*TRUNK)])
        assert agreement.prefix_consistent
        assert agreement.max_lag == 0
        assert agreement.healthy

    def test_one_block_behind_on_the_same_prefix_is_healthy(self):
        agreement = chain_agreement([view(*TRUNK), view(*TRUNK[:-1])])
        assert agreement.prefix_consistent
        assert agreement.max_lag == 1
        assert agreement.healthy

    def test_fork_at_the_tip_is_unhealthy(self):
        agreement = chain_agreement([view(*TRUNK), view(*TRUNK[:-1], "x3")])
        assert not agreement.prefix_consistent
        assert agreement.max_lag == 0
        assert not agreement.healthy

    def test_shorter_fork_is_unhealthy(self):
        agreement = chain_agreement([view(*TRUNK), view("g", "b1", "x2")])
        assert not agreement.prefix_consistent
        assert not agreement.healthy

    def test_lag_of_two_is_unhealthy(self):
        agreement = chain_agreement([view(*TRUNK), view(*TRUNK[:-2])])
        assert agreement.prefix_consistent
        assert agreement.max_lag == 2
        assert not agreement.healthy

    def test_one_workload_mismatch_is_unhealthy(self):
        agreement = chain_agreement([view(*TRUNK), view(*TRUNK)], 1)
        assert agreement.prefix_consistent
        assert agreement.max_lag == 0
        assert not agreement.healthy

    def test_a_height_the_reference_no_longer_retains_is_not_a_prefix(self):
        pruned = ChainView(3, ("b2", "b3"))
        assert not chain_agreement([pruned, view("g")]).prefix_consistent
        assert chain_agreement([pruned, view(*TRUNK[:-1])]).prefix_consistent


def test_a_partly_hosted_cluster_needs_a_fixed_base_port():
    spec = LiveSpec(node_count=3, config=make_config())
    with pytest.raises(ValueError, match="fixed base port"):
        LiveClusterHarness(spec, hosted=(1,))
    with pytest.raises(ValueError, match="set of node ids"):
        LiveClusterHarness(replace(spec, base_port=47000), hosted=(3,))
    assert LiveClusterHarness(replace(spec, base_port=47000), hosted=(2,)).hosted == (2,)


def _fake_children(monkeypatch, chains, mismatches=(), exit_code=0, hang=False):
    """Make every ``live node`` child print a record for ``chains[id]``."""

    class _Child:
        def __init__(self, command, **kwargs):
            node_id = int(command[command.index("--node-id") + 1])
            hashes = chains[node_id]
            self.returncode = exit_code
            self.line = json.dumps(
                {
                    "node": node_id,
                    "chain_digest": hashes[-1],
                    "chain_height": len(hashes) - 1,
                    "chain_hashes": list(hashes),
                    "blocks_mined": 0,
                    "reconnects": 0,
                    "workload_mismatches": int(node_id in mismatches),
                }
            )

        def communicate(self, timeout=None):
            if hang and timeout is not None:
                raise subprocess.TimeoutExpired("repro live node", timeout)
            return self.line + "\n", ""

        def kill(self):
            pass

    monkeypatch.setattr(subprocess, "Popen", _Child)


PROCS_ARGV = ["live", "run", "--procs", "--nodes", "3", "--minutes", "1"]


class TestProcsExitCode:
    def test_one_block_behind_exits_0(self, monkeypatch, capsys):
        _fake_children(monkeypatch, [TRUNK, TRUNK, TRUNK[:-1]])
        assert main(PROCS_ARGV) == 0
        output = capsys.readouterr().out
        assert "chain digests agree across processes: False" in output
        assert "healthy: True (prefix consistent: True, max lag: 1" in output

    @pytest.mark.parametrize(
        "chains, mismatches",
        [
            ([TRUNK, TRUNK, TRUNK[:-1] + ("x3",)], ()),
            ([TRUNK, TRUNK, TRUNK[:-2]], ()),
            ([TRUNK, TRUNK, TRUNK], (1,)),
        ],
        ids=["fork", "lag-2", "workload-mismatch"],
    )
    def test_disagreement_exits_1(self, monkeypatch, capsys, chains, mismatches):
        _fake_children(monkeypatch, chains, mismatches)
        assert main(PROCS_ARGV) == 1
        assert "healthy: False" in capsys.readouterr().out

    def test_failed_child_exits_1(self, monkeypatch):
        _fake_children(monkeypatch, [TRUNK] * 3, exit_code=2)
        assert main(PROCS_ARGV) == 1

    def test_timed_out_child_exits_1(self, monkeypatch, capsys):
        _fake_children(monkeypatch, [TRUNK] * 3, hang=True)
        assert main(PROCS_ARGV) == 1
        assert "timed out" in capsys.readouterr().err


def test_a_node_armed_mid_run_mints_the_planned_data_ids():
    """A restarted node resumes its producer sequence past the
    productions it missed, so its next item gets the planned id."""
    spec = LiveSpec(node_count=4, config=make_config(), seed=5, duration_minutes=10.0)
    workload = build_workload(spec)
    producer = workload.events[0].producer
    own = [k for k, event in enumerate(workload.events) if event.producer == producer]
    assert len(own) >= 3
    k = own[2]
    event, data_id = workload.events[k], workload.data_ids[k]

    async def rejoin() -> LiveNode:
        live = LiveNode(spec, workload, producer, start_logical=event.time)
        live.arm(spec.duration_seconds, after=event.time)
        live._produce(event, data_id)
        live.engine.stop()
        return live

    live = asyncio.run(rejoin())
    assert data_id in live.node.own_payloads
    assert live.workload_mismatches == 0


def test_live_node_whose_peers_never_connect_exits_with_one_line(monkeypatch):
    async def bound(self):
        return self.port

    async def never_connected(self, peer_ids, timeout=10.0):
        raise TimeoutError(f"peers never connected: {list(peer_ids)}")

    monkeypatch.setattr(PeerManager, "start", bound)
    monkeypatch.setattr(PeerManager, "wait_connected", never_connected)
    argv = [
        "live", "node", "--nodes", "2", "--node-id", "1", "--minutes", "1",
        "--base-port", "47000", "--start-at", str(time.time() + 60.0),
    ]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == "error: peers never connected: [0]"
