"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench -q

Runs every workload once at ≈1/10 size, untraced and traced, and holds
the benchmark to its own contract: checks pass, every metric named in
``BENCHMARK.json`` is reported with its unit, traced digests equal
untraced digests, nothing is unresolved, and ``agree.py`` accepts a
result against itself, rejects a doubled ``wall_s``, and refuses to
compare a smoke run with a full one.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402


def _run(*command: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *command], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full smoke pass: (result dict, result path, work directory)."""
    directory = tmp_path_factory.mktemp("bench-smoke")
    out = directory / "smoke.json"
    done = _run(
        str(BENCH / "run.py"), "--smoke", "--trace",
        "--out", str(out), "--workdir", str(directory / "work"),
    )  # fmt: skip
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text(encoding="utf-8")), out, directory


def test_manifest_lists_exactly_the_catalogue():
    assert MANIFEST["per_layer"] == layers.catalogue()
    assert MANIFEST["paths"] == ["bench"]
    assert "setup_s" in [metric["name"] for metric in MANIFEST["end_to_end"]]


def test_every_workload_passes_its_checks(smoke):
    result, _, _ = smoke
    assert result["smoke"] is True
    assert set(result["workloads"]) == {w["name"] for w in MANIFEST["workloads"]}
    for name, entry in result["workloads"].items():
        for run in entry["end_to_end_runs"] + [entry["traced_run"]]:
            failed = {k: v for k, v in run["unit"]["checks"].items() if not v["ok"]}
            assert run["correct"] and not failed, (name, failed)
            assert run["attempted"] >= 1


def test_every_named_metric_is_reported_with_its_unit(smoke):
    result, _, _ = smoke
    for entry in result["workloads"].values():
        for section, key in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
            reported = entry[key]
            for metric in MANIFEST[section]:
                assert reported[metric["name"]]["unit"] == metric["unit"]
            assert len(reported) == len(MANIFEST[section])
        for metric in MANIFEST["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["median"] > 0


def test_traced_run_matches_untraced_and_resolves_everything(smoke):
    result, _, directory = smoke
    for name, entry in result["workloads"].items():
        traced = entry["traced_run"]
        assert traced["unit"]["unresolved"] == []
        assert traced["metrics"]["trace.unresolved"]["value"] == 0
        assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
        if entry["deterministic"]:
            assert traced["unit"]["digests"] == entry["end_to_end_runs"][-1]["unit"]["digests"]
        trace = json.loads((directory / "work" / f"trace.{name}.json").read_text(encoding="utf-8"))
        assert trace["workload"] == name and len(trace["spans"]) > 100


def test_layers_do_work_only_where_predicted(smoke):
    result, _, _ = smoke
    for name, entry in result["workloads"].items():
        layer = {k: v["median"] for k, v in entry["per_layer"].items()}
        assert (layer["net.self_s"] > 0) == (name == "live_n8")
        assert (layer["persist.self_s"] > 0) == (name == "store_8k")
        assert layer["other.self_s"] == 0


def test_agree_accepts_itself_and_rejects_a_doubled_wall(smoke, tmp_path):
    result, out, _ = smoke
    assert _run(str(BENCH / "agree.py"), str(out), str(out)).returncode == 0

    slower = copy.deepcopy(result)
    slower["workloads"]["store_8k"]["end_to_end"]["wall_s"]["median"] *= 2
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(slower), encoding="utf-8")
    done = _run(str(BENCH / "agree.py"), str(out), str(doubled))
    assert done.returncode == 1 and "DISAGREE" in done.stdout

    full = copy.deepcopy(result)
    full["smoke"] = False
    as_full = tmp_path / "full.json"
    as_full.write_text(json.dumps(full), encoding="utf-8")
    assert _run(str(BENCH / "agree.py"), str(out), str(as_full)).returncode == 2


def test_one_workload_prints_the_result_object_last(tmp_path):
    done = _run(
        str(BENCH / "run.py"), "--workload", "store_8k", "--smoke", "--seed", "11",
        "--seconds", "30", "--trace", "0", "--workdir", str(tmp_path / "work"),
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-4000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {metric["name"] for metric in MANIFEST["end_to_end"]}
