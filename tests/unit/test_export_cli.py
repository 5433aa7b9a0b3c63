"""Unit tests for result export and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.metrics.collector import collect_run_metrics
from repro.metrics.export import metrics_to_record, write_csv
from repro.obs.export import write_json
from repro.simnet.trace import TransmissionTrace


@pytest.fixture
def sample_metrics():
    trace = TransmissionTrace()
    trace.record_hop(0, 1, 1000, "data_response")
    return collect_run_metrics(
        node_count=2,
        duration_seconds=60.0,
        trace=trace,
        storage_used=[3, 4],
        delivery_times=[0.5],
        failed_requests=0,
        block_timestamps=[0.0, 30.0],
        blocks_mined={0: 1},
    )


class TestExport:
    def test_record_contains_labels_and_metrics(self, sample_metrics):
        record = metrics_to_record(sample_metrics, solver="greedy", seed=7)
        assert record["solver"] == "greedy"
        assert record["seed"] == 7
        assert record["chain_height"] == 1
        assert record["storage_gini"] == pytest.approx(
            sample_metrics.storage_gini()
        )
        assert record["category_bytes"] == {"data_response": 1000}

    def test_json_round_trip(self, sample_metrics, tmp_path):
        records = [metrics_to_record(sample_metrics, seed=1)]
        path = write_json(records, tmp_path / "out" / "run.json")
        with path.open(encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded[0]["seed"] == 1
        assert loaded[0]["chain_height"] == 1

    def test_csv_written_with_union_header(self, sample_metrics, tmp_path):
        records = [
            metrics_to_record(sample_metrics, seed=1),
            {**metrics_to_record(sample_metrics, seed=2), "extra": "x"},
        ]
        path = write_csv(records, tmp_path / "run.csv")
        lines = path.read_text().splitlines()
        assert "extra" in lines[0]
        assert len(lines) == 3

    def test_csv_encodes_nested_dicts(self, sample_metrics, tmp_path):
        path = write_csv([metrics_to_record(sample_metrics)], tmp_path / "r.csv")
        body = path.read_text()
        assert "data_response" in body

    def test_empty_csv_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")


class TestCLI:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for command in ("run", "reproduce"):
            assert parser.parse_args([command]).command == command

    def test_run_command_executes_and_exports(self, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        exit_code = main(
            [
                "run",
                "--nodes", "5",
                "--minutes", "5",
                "--seed", "3",
                "--block-interval", "15",
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "chain height" in output
        record = json.loads(json_path.read_text())[0]
        assert record["node_count"] == 5

    def test_run_command_rejects_unknown_solver(self):
        with pytest.raises(SystemExit):
            main(["run", "--solver", "quantum"])


class TestCLIRejectsBadSpecs:
    """Bad flag values end in ``error: …`` and a non-zero exit, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["live", "run", "--kill", "1", "--kill-at", "0"],
             "kill/restart times must be positive"),
            (["live", "run", "--kill", "-1"], "kill target out of range"),
            (["live", "run", "--kill", "1", "--kill-down", "0"],
             "kill/restart times must be positive"),
            (["live", "run", "--kill", "99"], "kill target out of range"),
        ],
    )
    def test_bad_kill_drill_is_a_usage_error(self, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == f"error: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--nodes", "1"], "a blockchain network needs at least 2 nodes"),
            (["run", "--rate", "-1"], "data rate cannot be negative"),
            (["run", "--minutes", "-2"], "duration cannot be negative"),
            (["run", "--block-interval", "0"],
             "expected block interval must be positive"),
            (["run", "--checkpoint-every", "-1"],
             "checkpoint interval cannot be negative"),
            (["run", "--obs", "{tmp}/obs", "--obs-sample", "0"],
             "timeline interval must be positive"),
            (["run", "--minutes", "nan"], "duration must be finite"),
            (["prune", "{tmp}/run", "--checkpoint-every", "2", "--retain", "0"],
             "retain_blocks must be at least 1"),
            (["run", "--rate", "inf"], "data rate must be finite"),
            (["run", "--block-interval", "nan"], "expected block interval must be finite"),
            (["live", "run", "--minutes", "inf"], "duration must be finite"),
        ],
    )
    def test_bad_flag_value_is_a_usage_error(self, argv, message, tmp_path):
        if argv[0] == "prune":
            assert main(["run", "--nodes", "2", "--minutes", "1",
                         "--persist", str(tmp_path / "run")]) == 0
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == f"error: {message}"

    def test_live_run_procs_rejects_json(self, tmp_path):
        target = tmp_path / "record.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["live", "run", "--procs", "--json", str(target)])
        assert exit_info.value.code == "error: --json is not supported with --procs"
        assert not target.exists()
