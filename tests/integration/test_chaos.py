"""Chaos-suite integration tests: adversaries, verdicts, determinism.

The chaos runner must be a *seeded* instrument: the same scenario run
twice produces the identical verdict and honest-chain digest, and an
adversary-free scenario is bit-identical to a plain experiment — the
suite observes the protocol without perturbing it.  On top of that, the
safety/liveness invariants must hold with a quarter of the network
Byzantine.
"""

import dataclasses
import json
from dataclasses import replace

import pytest

from repro.chaos import ChaosSpec, run_chaos
from repro.chaos.scenario import node_classes_for
from repro.core.config import PAPER_CONFIG
from repro.core.messages import BlockRequest, BlockResponse, ChainRequest
from repro.net.harness import KillSpec
from repro.sim.runner import ChurnSpec, ExperimentSpec, build_runtime, run_experiment
from repro.version import package_version
from tests.helpers import make_config

pytestmark = pytest.mark.chaos


def chaos_config(**overrides):
    return make_config(verify_metadata_signatures=True, **overrides)


def run_twice(spec):
    return run_chaos(spec), run_chaos(spec)


class TestDeterminism:
    @pytest.mark.parametrize(
        "behavior",
        ["equivocator", "spammer", "poisoner", "tamperer", "flooder"],
    )
    def test_same_seed_same_verdict_and_digest(self, behavior):
        spec = ChaosSpec(
            node_count=6,
            config=chaos_config(),
            seed=7,
            duration_minutes=6.0,
            adversaries={behavior: (2,)},
        )
        first, second = run_twice(spec)
        assert first.verdict == second.verdict
        assert first.honest_digest == second.honest_digest

    def test_mixed_scenario_with_churn_deterministic(self):
        spec = ChaosSpec(
            node_count=8,
            config=chaos_config(),
            seed=11,
            duration_minutes=6.0,
            adversaries={"spammer": (3,), "flooder": (6,)},
            churn=ChurnSpec(node_fraction=0.25),
        )
        first, second = run_twice(spec)
        assert first.verdict == second.verdict


class TestAdversaryFreeNeutrality:
    def test_empty_scenario_matches_plain_experiment(self):
        """No adversaries => the chaos runner is a pure observer."""
        config = make_config()
        chaos = run_chaos(
            ChaosSpec(
                node_count=8, config=config, seed=5, duration_minutes=10.0
            )
        )
        plain = run_experiment(
            ExperimentSpec(
                node_count=8, config=config, seed=5, duration_minutes=10.0
            )
        )
        reference = plain.cluster.longest_chain_node().chain
        assert chaos.verdict["honest_digest"] == reference.chain_digest()
        assert chaos.verdict["honest_height"] == reference.height
        assert chaos.status == "ok"
        assert chaos.verdict["admission"]["total_rejections"] == 0
        assert chaos.verdict["admission"]["quarantined_peers"] == []


class TestSafetyUnderAttack:
    def test_quarter_adversarial_network_holds_invariants(self):
        """8 nodes, 2 Byzantine (spammer + equivocator): safety must hold."""
        spec = ChaosSpec(
            node_count=8,
            config=chaos_config(),
            seed=5,
            duration_minutes=10.0,
            adversaries={"spammer": (3,), "equivocator": (6,)},
        )
        result = run_chaos(spec)
        safety = result.verdict["safety"]
        assert safety["ok"], result.verdict
        assert safety["invalid_chains"] == []
        assert safety["genesis_consistent"]
        assert safety["checkpoint_violations"] == []
        assert safety["honest_quarantined"] == []
        # The spammer acts every block interval, so rejections must exist
        # and it must end up quarantined by the honest network.
        admission = result.verdict["admission"]
        assert admission["rejections"].get("bad_hash", 0) > 0
        assert admission["rejections"].get("bad_pos", 0) > 0
        assert 3 in admission["quarantined_peers"]
        assert result.status != "critical"

    def test_flooder_is_quarantined_without_hurting_liveness(self):
        spec = ChaosSpec(
            node_count=6,
            config=chaos_config(),
            seed=5,
            duration_minutes=10.0,
            adversaries={"flooder": (2,)},
        )
        result = run_chaos(spec)
        assert result.verdict["safety"]["ok"]
        assert result.verdict["liveness"]["ok"], result.verdict["liveness"]
        admission = result.verdict["admission"]
        assert admission["rejections"].get("flood", 0) > 0
        assert 2 in admission["quarantined_peers"]

    def test_tamperer_caught_by_signature_verification(self):
        spec = ChaosSpec(
            node_count=6,
            config=chaos_config(),
            seed=5,
            duration_minutes=10.0,
            adversaries={"tamperer": (2,)},
        )
        result = run_chaos(spec)
        rejections = result.verdict["admission"]["rejections"]
        assert rejections.get("bad_producer", 0) > 0
        assert rejections.get("bad_signature", 0) > 0
        assert result.verdict["safety"]["ok"]


class TestLivenessUnderAttack:
    def test_spammer_with_churn_stays_non_critical(self):
        spec = ChaosSpec(
            node_count=8,
            config=chaos_config(),
            seed=11,
            duration_minutes=10.0,
            adversaries={"spammer": (3,)},
            churn=ChurnSpec(node_fraction=0.25),
        )
        result = run_chaos(spec)
        assert result.status in ("ok", "warning")
        liveness = result.verdict["liveness"]
        assert liveness["common_prefix_height"] > 0
        assert liveness["common_prefix_height"] >= liveness["growth_floor"]


@pytest.mark.net
class TestLiveChaos:
    def test_live_spammer_with_kill_restart(self):
        """Adversary + crash fault over real sockets: the honest cluster
        quarantines the spammer, resyncs the restarted node, and the
        safety invariants hold end to end."""
        # t0=30 keeps the restarted node's re-mined low blocks outside
        # the equivocation window by the time it reconnects.
        config = replace(
            PAPER_CONFIG,
            data_items_per_minute=1.0,
            expected_block_interval=30.0,
        )
        spec = ChaosSpec(
            node_count=8,
            config=config,
            seed=5,
            duration_minutes=6.0,
            adversaries={"spammer": (5,)},
            kill=KillSpec(node_id=3, at_minutes=2.0, down_minutes=1.5),
            fabric="live",
            time_scale=0.02,
        )
        result = run_chaos(spec)
        verdict = result.verdict
        assert verdict["safety"]["ok"], verdict
        assert verdict["live"]["restarted"] == [3]
        assert verdict["live"]["resynced"], verdict["live"]
        assert verdict["live"]["reconnects"] > 0
        assert result.status != "critical", verdict
        # The bad-hash variant dies in the wire codec (decode re-verifies
        # the content hash), so on the live fabric the admission layer
        # sees the forged-PoS and forged-miner variants.
        rejections = verdict["admission"]["rejections"]
        assert rejections.get("bad_pos", 0) > 0
        assert rejections.get("bad_miner", 0) > 0
        assert 5 in verdict["admission"]["quarantined_peers"]


class TestPoisonerPaths:
    """Drive the sync-poisoner's serve paths and the victim-side
    attribution directly — gap recovery only routes through the poisoner
    at some seeds, and these invariants must not be seed-dependent."""

    @pytest.fixture
    def attacked(self):
        spec = ChaosSpec(
            node_count=6,
            config=chaos_config(),
            seed=7,
            duration_minutes=5.0,
            adversaries={"poisoner": (2,)},
        )
        experiment = ExperimentSpec(
            node_count=spec.node_count,
            config=spec.config,
            seed=spec.seed,
            duration_minutes=spec.duration_minutes,
            node_classes=node_classes_for(spec),
        )
        runtime = build_runtime(experiment)
        runtime.engine.run_until(spec.duration_seconds)
        return runtime

    def test_poisoned_gap_response_charged_to_sender(self, attacked):
        victim = attacked.cluster.nodes[0]
        poisoner_id = 2
        base = victim._build_block(victim.chain.tip)
        forged_pos = dataclasses.replace(
            base, pos_hash="ab" * 32, current_hash=""
        )
        tip_before = victim.chain.tip.current_hash
        victim._on_block_response(
            poisoner_id, BlockResponse(blocks=(forged_pos,))
        )
        # Structure and linkage pass, so the block reaches the drain where
        # PoS re-verification fails — charged to the delivering peer.
        assert victim.admission.rejections.get("bad_pos", 0) >= 1
        assert victim.admission.scores.get(poisoner_id, 0.0) > 0
        assert victim.chain.tip.current_hash == tip_before
        assert victim.sync.buffered == {}

    def test_garbage_hash_dropped_at_response_boundary(self, attacked):
        victim = attacked.cluster.nodes[0]
        poisoner_id = 2
        base = victim._build_block(victim.chain.tip)
        garbage = dataclasses.replace(base, current_hash="00" * 32)
        victim._on_block_response(poisoner_id, BlockResponse(blocks=(garbage,)))
        assert victim.admission.rejections.get("bad_hash", 0) >= 1
        # Never buffered: rejected before touching sync state.
        assert victim.sync.buffered == {}

    def test_poisoner_serves_tampered_blocks(self, attacked):
        poisoner = attacked.cluster.nodes[2]
        victim = attacked.cluster.nodes[0]
        actions_before = poisoner.chaos_actions
        held_before = [victim.chain.block_at(i).current_hash for i in (1, 2)]
        poisoner._on_block_request(
            victim.node_id,
            BlockRequest(indices=(1, 2), origin=victim.node_id),
        )
        attacked.engine.run_until(attacked.engine.now + 10.0)
        assert poisoner.chaos_actions > actions_before
        # The victim already holds those heights; the tampered copies
        # must not displace them (honest mining may continue meanwhile).
        held_after = [victim.chain.block_at(i).current_hash for i in (1, 2)]
        assert held_after == held_before

    def test_truncated_chain_response_never_adopted(self, attacked):
        poisoner = attacked.cluster.nodes[2]
        victim = attacked.cluster.nodes[0]
        actions_before = poisoner.chaos_actions
        genesis_before = victim.chain.block_at(0).current_hash
        poisoner._on_chain_request(
            victim.node_id, ChainRequest(origin=victim.node_id)
        )
        attacked.engine.run_until(attacked.engine.now + 10.0)
        assert poisoner.chaos_actions == actions_before + 1
        # The genesis-less chain is one block short, so the longest-chain
        # rule alone discards it; even if the poisoner were ahead, replay
        # validation would refuse a chain with a foreign root.  Either
        # way the victim's root must hold (honest mining may extend the
        # tip meanwhile).
        assert victim.chain.block_at(0).current_hash == genesis_before
        assert victim.chain.block_at(0).is_genesis


class TestChaosVerdictVersionStamp:
    def test_single_cluster_chaos_verdict_carries_version(self, tmp_path):
        """Regression: chaos_verdict.json is stamped like verdict.json."""
        spec = ChaosSpec(
            node_count=4,
            config=make_config(),
            seed=3,
            duration_minutes=4.0,
            adversaries={},
        )
        result = run_chaos(spec)
        target = result.write_verdict(tmp_path / "chaos_verdict.json")
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["version"] == package_version()
