"""``reproduce``: the paper's claims, checked on plain-data cell records.

The real run takes about two minutes at 500 simulated minutes per cell,
so these tests swap :func:`repro.sim.scenarios.run_cell` for canned
metrics and check the claim rules, the record, and the verb's exit code.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.sim import scenarios
from repro.sim.scenarios import (
    PAPER_NODE_COUNTS,
    PAPER_SEED_COUNT,
    data_amount_scenario,
    paper_claims,
    placement_scenario,
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
    return [claim["claim"] for claim in paper_claims(record) if not claim["holds"]]


def set_cell(key, value):
    def mutate(record):
        record["fig4"][0][key] = value

    return mutate


def random_faster(record):
    for cell in record["fig5"]:
        if cell["solver"] == "random":
            cell["delivery"] = 0.4


def energy_saving(percent):
    def mutate(record):
        record["energy_saving"][1]["percent"] = percent

    return mutate


class TestClaimRules:
    def test_healthy_record_holds_every_claim(self, record):
        assert record["claims"] == paper_claims(record)
        assert failing(record) == []

    @pytest.mark.parametrize(
        "mutate, claim",
        [
            (set_cell("gini", 0.16), "Fig. 4(b) storage Gini < 0.15 in every cell"),
            (set_cell("delivery", 4.1), "Fig. 4(c) mean delivery < 4 s in every cell"),
            (random_faster, "Fig. 5(a) optimal placement saves delivery time vs random (%)"),
            (energy_saving(55.0), "PoS energy saving per block vs PoW (%)"),
            (set_cell("failed", 3), "Fig. 4 failed requests per cell"),
        ],
        ids=["gini", "delivery", "random-faster", "energy", "failed"],
    )
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


class TestReproduceVerb:
    def test_writes_the_record_and_exits_0(self, runs, tmp_path, capsys):
        target = tmp_path / "reproduction.json"
        assert main(["reproduce", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Paper claims" in out and "about 120 MB" in out
        written = json.loads(target.read_text())
        assert written["claims"] and all(c["holds"] for c in written["claims"])

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
