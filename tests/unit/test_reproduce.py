"""``reproduce``: the paper's claims, checked on plain-data cell records.

The real run takes about a minute and a half at 500 simulated minutes per
cell, so these tests swap its runners (:func:`repro.sim.scenarios.run_cell`,
``probe``, ``network_energy``, ``attack``) for canned metrics and check the
claim rules, the record, and the verb's exit code.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.sim import scenarios
from repro.sim.scenarios import (
    ADVERSARY_NODES,
    PAPER_NODE_COUNTS,
    PAPER_SEED_COUNT,
    adversary_claims,
    data_amount_scenario,
    mechanism_claims,
    paper_claims,
    placement_scenario,
    scale_claims,
)


def canned_run(spec):
    """A healthy run: traffic grows with rate and (slowly) with nodes, and
    the optimal arm delivers faster than the random one at equal traffic."""
    rate = spec.config.data_items_per_minute
    optimal = spec.config.placement_solver == "greedy"
    return {
        "seed": spec.seed,
        "avg_node_mb": 100.0 * rate * (1.0 + spec.node_count / 100.0),
        "gini": 0.03,
        "delivery": 0.5 if optimal else 0.6,
        "p95_delivery": 1.0,
        "failed": 0,
        "served": 100,
        "height": 500,
        "interval": 60.0,
        "storage_fill": 0.5,
    }


def canned_probe(spec):
    """A healthy mechanism or scale run: A = 1000 stores and sends less than A = 1 and
    delivers slower, the cache cuts recovery traffic, blocks come every t0."""
    config = spec.config
    thin, cached = config.fdc_weight >= 1000, config.recent_cache_capacity > 0
    return {
        "gini": 0.04, "items": 30, "height": 30, "served": 100, "failed": 0,
        "delivery": 0.5 if thin else 0.01,
        "slots": 26.0 if thin else 120.0,
        "mb": 80.0 if thin else 390.0,
        "intervals": [config.expected_block_interval] * 10,
        "recoveries": [70.0 if cached else 50.0] * 20,
        "recovery_bytes": 1_000_000 if cached else 1_700_000,
        "claims": len(spec.node_classes or {}),
        "digest": "d",
    }


def canned_attack(spec, partition=None):
    """A healthy adversary run: safe and live, every adversary that acted
    quarantined, and the tamperer's forgeries rejected for both reasons."""
    planted = sorted(spec.node_classes)
    tamperer = any(cls.__name__ == "MetadataTampererNode" for cls in spec.node_classes.values())
    rejections = {"bad_producer": 21, "bad_signature": 21} if tamperer else {}
    if planted and not tamperer:
        rejections = {"bad_hash": 21}
    return {"seed": spec.seed, "planted": planted, "status": "ok", "violations": 0,
            "prefix": 30, "floor": 8, "rejections": rejections, "unquarantined": 0,
            "digest": "d"}


def canned_energy(consensus):
    watts = 15.0 if consensus == "pos" else 40.0
    return {"height": 43, "network_watts": watts, "per_node_watts": watts / 10,
            "joules_per_block": watts * 1200 / 43}


@pytest.fixture(autouse=True)
def probes(monkeypatch):
    """Specs handed to the canned mechanism and scale runner (A7's is canned too)."""
    seen = []
    monkeypatch.setattr(scenarios, "probe", lambda spec: seen.append(spec) or canned_probe(spec))
    monkeypatch.setattr(scenarios, "network_energy", canned_energy)
    return seen


@pytest.fixture(autouse=True)
def attacks(monkeypatch):
    """``(spec, partition)`` handed to the canned adversary runner."""
    seen = []

    def attack(spec, partition=None):
        seen.append((spec, partition))
        return canned_attack(spec, partition)

    monkeypatch.setattr(scenarios, "attack", attack)
    return seen


@pytest.fixture
def runs(monkeypatch):
    """Specs handed to the cell runner, which answers with canned metrics."""
    seen = []

    def run(spec):
        seen.append(spec)
        return canned_run(spec)

    monkeypatch.setattr(scenarios, "run_cell", run)
    return seen


@pytest.fixture
def record(runs):
    return scenarios.reproduce()


def failing(record):
    claims = (paper_claims(record) + mechanism_claims(record) + scale_claims(record)
              + adversary_claims(record))
    return [claim["claim"] for claim in claims if not claim["holds"]]


def put(paths, value):
    """Set ``value`` at each space-separated ``key/0/key`` path of the record."""

    def mutate(record):
        for path in paths.split():
            *steps, last = [int(step) if step.isdigit() else step for step in path.split("/")]
            target = record
            for step in steps:
                target = target[step]
            target[last] = value

    return mutate


#: One value moved just past its bound, and the claim that alone fails.
#: Fig. 5's odd cells are its random arm; A1's rows run A = 1, 10, 100,
#: 1000, 10000; A8's 0, 10, 25, 40 % (its last case moves both values its
#: claim reads); the adversary runs equivocator, spammer, poisoner,
#: tamperer, flooder, two seeds each.
CASES = [
    pytest.param(put(paths, value), claim, id=case_id)
    for case_id, paths, value, claim in [
        ("gini", "fig4/0/gini", 0.16, "Fig. 4(b) storage Gini < 0.15 in every cell"),
        ("delivery", "fig4/0/delivery", 4.1, "Fig. 4(c) mean delivery < 4 s in every cell"),
        ("random-faster", "fig5/1/delivery fig5/3/delivery fig5/5/delivery fig5/7/delivery "
         "fig5/9/delivery", 0.4, "Fig. 5(a) optimal placement saves delivery time vs random (%)"),
        ("energy", "energy_saving/1/percent", 55.0, "PoS energy saving per block vs PoW (%)"),
        ("failed", "fig4/0/failed", 3, "Fig. 4 failed requests per cell"),
        ("a1-slots", "mechanisms/fdc_weight/3/slots", 60.5, "A1 slots used per node, A=1000 / A=1"),
        ("a1-mb", "mechanisms/fdc_weight/3/mb", 390.0, "A1 MB per node, A=1000 / A=1"),
        ("a1-delivery-ratio", "mechanisms/fdc_weight/0/delivery", 0.51,
         "A1 mean delivery, A=1000 / A=1"),
        ("a1-delivery", "mechanisms/fdc_weight/3/delivery", 4.0, "A1 mean delivery at A=1000 (s)"),
        ("a1-gini", "mechanisms/fdc_weight/3/gini", 0.15, "A1 storage Gini at A=1000"),
        ("a3-recoveries", "mechanisms/recent_cache/off/recoveries", 0,
         "A3 recoveries completed in each arm"),
        ("a3-traffic", "mechanisms/recent_cache/on/kb", 1700.0,
         "A3 recovery traffic, cache on / off"),
        ("a3-latency", "mechanisms/recent_cache/on/mean", 100.5,
         "A3 mean recovery time, cache on / off"),
        ("a4-interval", "mechanisms/pos_interval/1/mean", 90.5,
         "A4 mean block interval at every n (s), t0 = 60 s"),
        ("a4-rescale", "mechanisms/rescale/every_10", 37.6,
         "A4 |interval rescaling S every 10 blocks - never| / never"),
        ("a7-height", "mechanisms/network_energy/pos/height", 108, "A7 PoS / PoW chain height"),
        ("a7-saving", "mechanisms/network_energy/saving", 50.0,
         "A7 PoS network power saving vs PoW (%)"),
        ("a8-success-0", "mechanisms/deniers/0/success", 0.99,
         "A8 request success with no deniers"),
        ("a8-success-25", "mechanisms/deniers/2/success", 0.95,
         "A8 request success with 25 % deniers"),
        ("a8-claims-0", "mechanisms/deniers/0/claims", 1, "A8 claims broadcast with no deniers"),
        ("a8-claims-25-40", "mechanisms/deniers/2/claims mechanisms/deniers/3/claims", 0,
         "A8 claims broadcast with 25 % or 40 % deniers"),
        ("scale-height", "scale/cells/1/height", 2, "Scale chain height in every cell"),
        ("scale-items", "scale/cells/0/items", 0, "Scale items produced in every cell"),
        ("scale-served", "scale/cells/2/served", 0, "Scale deliveries in every cell"),
        ("scale-gini", "scale/cells/1/gini", 0.15, "Scale storage Gini in every cell"),
        ("scale-failed", "scale/cells/0/failed", 1, "Scale failed requests in every cell"),
        ("adv-safety", "adversaries/runs/3/violations", 1,
         "Adversary safety violations per run, f < n/3"),
        ("adv-liveness", "adversaries/runs/4/prefix", 7,
         "Adversary honest common prefix / growth floor per run, f < n/3"),
        ("adv-quarantine", "adversaries/runs/9/unquarantined", 1,
         "Spammers, equivocators and flooders that acted, unquarantined"),
        ("adv-tamperer", "adversaries/runs/7/rejections/bad_signature", 0,
         "Tamperer bad_producer and bad_signature rejections"),
        ("adv-churn", "adversaries/churn/1/status", "critical",
         "Spammer under 25 % churn: not critical, prefix / growth floor"),
        ("adv-partition", "adversaries/partition/0/violations", 1,
         "Spammer under a 1-2 min half/half partition: safety violations"),
        ("adv-empty", "adversaries/empty/1/plain_digest", "other",
         "No adversary: rejections; verdict ok on the plain run's digest"),
    ]
]


class TestClaimRules:
    def test_healthy_record_holds_every_claim(self, record):
        assert record["claims"] == paper_claims(record)
        assert record["mechanisms"]["claims"] == mechanism_claims(record)
        assert record["scale"]["claims"] == scale_claims(record)
        assert record["adversaries"]["claims"] == adversary_claims(record)
        assert failing(record) == []

    @pytest.mark.parametrize("mutate, claim", CASES)
    def test_one_value_past_its_bound_fails_exactly_its_claim(self, record, mutate, claim):
        broken = copy.deepcopy(record)
        mutate(broken)
        assert failing(broken) == [claim]

    def test_failing_claim_reports_the_offending_cell(self, record):
        broken = copy.deepcopy(record)
        broken["fig4"][4]["gini"] = 0.16
        (gini,) = [c for c in paper_claims(broken) if not c["holds"]]
        assert gini["measured"] == 0.16
        assert gini["at"] == "n=20, 2 item/min"

    def test_run_anchors_are_checked_on_every_run(self, record):
        broken = copy.deepcopy(record)
        broken["fig4"][-1]["runs"][1]["height"] = 901
        assert failing(broken) == ["Fig. 4 blocks per 500-minute run, at most"]
        (claim,) = [c for c in paper_claims(broken) if not c["holds"]]
        assert claim["at"] == "n=50, 3 item/min, seed 1"


class TestReproduceRecord:
    def test_fig5_optimal_arm_is_fig4s_one_item_column(self):
        for nodes in PAPER_NODE_COUNTS:
            for seed in range(PAPER_SEED_COUNT):
                assert placement_scenario(nodes, "greedy", seed=seed) == (
                    data_amount_scenario(nodes, 1.0, seed=seed)
                )

    def test_each_distinct_spec_runs_once(self, record, runs):
        # 15 Fig. 4 cells and Fig. 5's 5 random cells, two seeds each.
        assert len(runs) == len(set(runs)) == 40
        assert all(spec.duration_seconds == 500 * 60 for spec in runs)
        optimal = {c["nodes"]: c for c in record["fig5"] if c["solver"] == "greedy"}
        column = {c["nodes"]: c for c in record["fig4"] if c["rate"] == 1.0}
        assert optimal.keys() == column.keys()
        for nodes, cell in optimal.items():
            assert cell["runs"] == column[nodes]["runs"]

    def test_record_is_plain_json(self, record):
        assert json.loads(json.dumps(record)) == record
        assert len(record["fig4"]) == 15 and len(record["fig5"]) == 10

    def test_mechanism_and_scale_runs_are_the_ablation_specs(self, record, probes):
        # A1 10, A3 6, A4 6 + 2, A8 8, the 3 scale cells and the empty
        # adversary mix's 2 plain runs, each distinct.
        assert len(probes) == len({repr(spec) for spec in probes}) == 37
        deniers = [spec for spec in probes if spec.node_classes is not None]
        assert [len(spec.node_classes) for spec in deniers] == [0, 0, 2, 2, 5, 5, 8, 8]
        assert [(spec.node_count, spec.seed) for spec in probes[-5:-2]] == [
            (100, 5), (400, 5), (1000, 5)]
        assert [(spec.node_count, spec.seed) for spec in probes[-2:]] == [
            (ADVERSARY_NODES, 0), (ADVERSARY_NODES, 1)]

    def test_adversary_runs_plant_under_a_third(self, record, attacks):
        # 5 types, the churn and the partition overlay, the empty mix; 2 seeds each.
        assert len(attacks) == 16
        planted = [spec for spec, _ in attacks if spec.node_classes]
        assert len(planted) == 14
        for spec, _ in attacks:
            assert spec.node_count == ADVERSARY_NODES
            assert 3 * len(spec.node_classes) < spec.node_count
            assert len(set(spec.node_classes.values())) <= 1
            assert spec.config.verify_metadata_signatures
        churned = [spec for spec, _ in attacks if spec.churn is not None]
        assert [spec.churn.node_fraction for spec in churned] == [0.25, 0.25]
        assert [p for _, p in attacks if p is not None] == [(1.0, 2.0), (1.0, 2.0)]
        assert [spec.seed for spec, _ in attacks[-2:]] == [0, 1]
        assert not any(spec.node_classes for spec, _ in attacks[-2:])


class TestReproduceVerb:
    def test_writes_the_record_and_exits_0(self, runs, tmp_path, capsys):
        target = tmp_path / "reproduction.json"
        assert main(["reproduce", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Paper claims" in out and "about 120 MB" in out
        assert all(f"Ablation A{n} —" in out for n in (1, 3, 4, 7, 8))
        assert "Mechanism claims" in out and "Scale claims" in out
        assert "Adversary claims" in out and "49/49 claims hold" in out
        written = json.loads(target.read_text())
        assert written["claims"] and all(c["holds"] for c in written["claims"])
        assert all(c["holds"] for c in written["mechanisms"]["claims"] + written["scale"]["claims"]
                   + written["adversaries"]["claims"])

    def test_exits_1_when_one_claim_fails(self, monkeypatch, tmp_path):
        def unfair(spec):
            run = canned_run(spec)
            if spec.node_count == 30 and spec.config.data_items_per_minute == 3.0:
                run["gini"] = 0.16
            return run

        monkeypatch.setattr(scenarios, "run_cell", unfair)
        target = tmp_path / "reproduction.json"
        assert main(["reproduce", "--json", str(target)]) == 1
        claims = json.loads(target.read_text())["claims"]
        assert [c["claim"] for c in claims if not c["holds"]] == [
            "Fig. 4(b) storage Gini < 0.15 in every cell"
        ]

    def test_exits_1_when_one_mechanism_claim_fails(self, runs, monkeypatch, tmp_path, capsys):
        # Recovery with the cache on costs as much as with it off.
        monkeypatch.setattr(
            scenarios, "probe", lambda spec: {**canned_probe(spec), "recovery_bytes": 10**6})
        target = tmp_path / "reproduction.json"
        assert main(["reproduce", "--json", str(target)]) == 1
        assert "48/49 claims hold" in capsys.readouterr().out
        written = json.loads(target.read_text())
        assert all(c["holds"] for c in written["claims"] + written["scale"]["claims"]
                   + written["adversaries"]["claims"])
        failed = [c["claim"] for c in written["mechanisms"]["claims"] if not c["holds"]]
        assert failed == ["A3 recovery traffic, cache on / off"]
