"""Adversary integration tests: planted adversaries, verdicts, determinism.

Adversaries are planted through ``ExperimentSpec.node_classes`` (and
``LiveSpec.node_classes`` on sockets) and judged by
:func:`repro.chaos.compute_verdict`.  A seeded run is an instrument: the
same run twice produces the identical verdict and honest-chain digest,
and a run with no adversary agrees with the plain experiment.  On top of
that, the safety/liveness invariants must hold with a quarter of the
network Byzantine.  ``repro reproduce`` gates the same verdicts as claims
(``tests/unit/test_reproduce.py``).
"""

import asyncio
import dataclasses
from dataclasses import replace

import pytest

from repro.chaos import ADVERSARY_TYPES, InvalidBlockSpammerNode, compute_verdict
from repro.core.config import PAPER_CONFIG
from repro.core.messages import BlockRequest, BlockResponse, ChainRequest
from repro.net.harness import KillSpec, LiveClusterHarness, LiveSpec
from repro.sim.runner import ChurnSpec, ExperimentSpec, build_runtime, run_experiment
from tests.helpers import make_config


def chaos_config(**overrides):
    return make_config(verify_metadata_signatures=True, **overrides)


def plant(adversaries):
    """``{behavior: node ids}`` as the ``node_classes`` both fabrics take."""
    return {
        node: ADVERSARY_TYPES[behavior]
        for behavior, nodes in adversaries.items()
        for node in nodes
    }


def attack(node_count, seed, minutes, adversaries, config=None, churn=None):
    """Run the planted spec on the simulator; its verdict."""
    spec = ExperimentSpec(
        node_count=node_count,
        config=config or chaos_config(),
        seed=seed,
        duration_minutes=minutes,
        churn=churn,
        node_classes=plant(adversaries),
    )
    result = run_experiment(spec)
    return compute_verdict(
        result.cluster.nodes,
        spec.node_classes,
        spec.config.expected_block_interval,
        spec.duration_seconds,
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "behavior",
        ["equivocator", "spammer", "poisoner", "tamperer", "flooder"],
    )
    def test_same_seed_same_verdict_and_digest(self, behavior):
        first, second = (attack(6, 7, 6.0, {behavior: (2,)}) for _ in range(2))
        assert first == second
        assert first["honest_digest"] == second["honest_digest"]

    def test_mixed_scenario_with_churn_deterministic(self):
        first, second = (
            attack(8, 11, 6.0, {"spammer": (3,), "flooder": (6,)},
                   churn=ChurnSpec(node_fraction=0.25))
            for _ in range(2)
        )
        assert first == second


class TestAdversaryFreeNeutrality:
    def test_empty_scenario_matches_plain_experiment(self):
        """No adversaries => planting and the verdict are pure observers."""
        config = make_config()
        verdict = attack(8, 5, 10.0, {}, config=config)
        plain = run_experiment(
            ExperimentSpec(
                node_count=8, config=config, seed=5, duration_minutes=10.0
            )
        )
        reference = plain.cluster.longest_chain_node().chain
        assert verdict["honest_digest"] == reference.chain_digest()
        assert verdict["honest_height"] == reference.height
        assert verdict["status"] == "ok"
        assert verdict["admission"]["total_rejections"] == 0
        assert verdict["admission"]["quarantined_peers"] == []


class TestSafetyUnderAttack:
    def test_quarter_adversarial_network_holds_invariants(self):
        """8 nodes, 2 Byzantine (spammer + equivocator): safety must hold."""
        verdict = attack(8, 5, 10.0, {"spammer": (3,), "equivocator": (6,)})
        safety = verdict["safety"]
        assert safety["ok"], verdict
        assert safety["invalid_chains"] == []
        assert safety["genesis_consistent"]
        assert safety["checkpoint_violations"] == []
        assert safety["honest_quarantined"] == []
        # The spammer acts every block interval, so rejections must exist
        # and it must end up quarantined by the honest network.
        admission = verdict["admission"]
        assert admission["rejections"].get("bad_hash", 0) > 0
        assert admission["rejections"].get("bad_pos", 0) > 0
        assert 3 in admission["quarantined_peers"]
        assert verdict["status"] != "critical"

    def test_flooder_is_quarantined_without_hurting_liveness(self):
        verdict = attack(6, 5, 10.0, {"flooder": (2,)})
        assert verdict["safety"]["ok"]
        assert verdict["liveness"]["ok"], verdict["liveness"]
        admission = verdict["admission"]
        assert admission["rejections"].get("flood", 0) > 0
        assert 2 in admission["quarantined_peers"]

    def test_tamperer_caught_by_signature_verification(self):
        verdict = attack(6, 5, 10.0, {"tamperer": (2,)})
        rejections = verdict["admission"]["rejections"]
        assert rejections.get("bad_producer", 0) > 0
        assert rejections.get("bad_signature", 0) > 0
        assert verdict["safety"]["ok"]

    def test_tamperers_do_not_reforge_each_others_forgeries(self):
        """A tamperer that re-forged another tamperer's forged-producer
        copy sent a second bad producer where a broken signature was due;
        at this seed no honest node then saw a bad signature at all."""
        config = replace(
            PAPER_CONFIG,
            data_items_per_minute=2.0,
            expected_block_interval=30.0,
            verify_metadata_signatures=True,
        )
        verdict = attack(10, 0, 5.0, {"tamperer": (1, 4, 8)}, config=config)
        rejections = verdict["admission"]["rejections"]
        assert rejections.get("bad_producer", 0) > 0
        assert rejections.get("bad_signature", 0) > 0


class TestLivenessUnderAttack:
    def test_spammer_with_churn_stays_non_critical(self):
        verdict = attack(
            8, 11, 10.0, {"spammer": (3,)}, churn=ChurnSpec(node_fraction=0.25)
        )
        assert verdict["status"] in ("ok", "warning")
        liveness = verdict["liveness"]
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
        spec = LiveSpec(
            node_count=8,
            config=config,
            seed=5,
            duration_minutes=6.0,
            time_scale=0.02,
            kill=KillSpec(node_id=3, at_minutes=2.0, down_minutes=1.5),
            node_classes={5: InvalidBlockSpammerNode},
        )
        harness = LiveClusterHarness(spec)
        result = asyncio.run(harness.run())
        nodes = {node_id: live.node for node_id, live in harness.nodes.items()}
        verdict = compute_verdict(
            nodes, spec.node_classes, config.expected_block_interval,
            spec.duration_seconds,
        )
        assert verdict["safety"]["ok"], verdict
        assert list(result.restarted) == [3]
        assert result.resynced, result.summary()
        assert result.reconnects > 0
        assert verdict["status"] != "critical", verdict
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
        experiment = ExperimentSpec(
            node_count=6,
            config=chaos_config(),
            seed=7,
            duration_minutes=5.0,
            node_classes=plant({"poisoner": (2,)}),
        )
        runtime = build_runtime(experiment)
        runtime.engine.run_until(experiment.duration_seconds)
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
