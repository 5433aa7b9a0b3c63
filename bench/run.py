#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, named metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--runs K]
                         [--trace [0|1]] [--smoke] [--out FILE]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs.  Each
measurement happens in a **fresh subprocess**, so ``peak_rss_mb`` is per
workload and the process-wide ``Account.for_node`` memo cannot warm a
later set-up.  ``--trace 0`` (default) reports the end-to-end metrics of
an untraced run; ``--trace 1`` (or bare ``--trace``) repeats the workload
with the layer-boundary tracer installed and reports the per-layer
metrics, after checking that the traced run reached the same digests.

Every metric is printed by name with its unit, the correctness checks
gate the exit code, and with ``--workload`` the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The three time metrics are seconds *at reference host speed*: a fixed
probe runs between the segments of every timed region and each segment
is scaled by it (``workloads.Meter``; the host under this VM changes
speed by a third every few seconds).  Raw clock readings are printed and
recorded beside them.

The work of a run is fixed by the workload, not by the clock — that is
what makes digests and simulated-time metrics repeat exactly — so
``--seconds`` is recorded but does not stretch or cut a run;
``run_seconds`` in ``BENCHMARK.json`` is the longest timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

#: Cold set-ups behind a reported ``setup_s``; what the timed run itself
#: did not supply comes from set-up-only children — at least one, and no
#: more once the samples add up to SETUP_BUDGET_SECONDS (a 5 s set-up is
#: its own long measurement; three of them would cost a run 15 s).
SETUP_SAMPLES = 3
SETUP_BUDGET_SECONDS = 8.0

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_SECONDS = 600

SCHEMA = "repro.bench.result/v1"

#: Simulated-time results of a run, kept beside the host-time metrics so
#: ``agree.py`` can tell a speed-up from a quiet change in behaviour.
QUALITY = (
    "core.node.delivery_p50_sim_s",
    "core.node.delivery_tail_sim_s",
    "facility.storage_gini",
    "simnet.transport.tx_mb_per_node",
)


# -- child: the only code that imports the program -------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.child_traced:
        from tracer import install_tracer

        tracer = install_tracer()
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"refusing to measure {repro.__file__}: not this checkout's src/", file=sys.stderr)
        return 3
    import numpy
    import sqlite3

    import workloads
    from repro.version import package_version

    workdir = Path(args.workdir)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": tracer is not None,
        "versions": {
            "repro": package_version(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sqlite": sqlite3.sqlite_version,
        },
    }
    if args.child == "setup":
        record["setup_s"] = workloads.set_up_only(args.workload, args.seed, args.smoke, workdir)
    else:
        record.update(workloads.run_unit(args.workload, args.seed, args.smoke, workdir, tracer))
        if tracer is not None:
            from layers import per_layer_values

            values, unresolved = per_layer_values(tracer, record["run_values"])
            record["per_layer"] = values
            record["unresolved"] = unresolved
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            record["trace_file"] = str(Path(args.trace_dir) / f"trace.{args.workload}.json")
            tracer.write(record["trace_file"], args.workload, run_id)
    Path(args.child_out).write_text(json.dumps(record), encoding="utf-8")
    return 0


# -- parent: orchestration, never imports the program ----------------------------


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not: a check failed)."""


def spawn(mode: str, workload: str, seed: int, smoke: bool, base: Path, traced: bool = False):
    """Run one child to completion in a scratch directory of its own."""
    base.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    out = scratch / "result.json"
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--child", mode, "--workload", workload, "--seed", str(seed),
        "--workdir", str(scratch), "--child-out", str(out), "--trace-dir", str(base),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--child-traced")
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_SECONDS
        )
        if done.returncode != 0 or not out.exists():
            raise BenchError(
                f"{workload} {mode} child exited {done.returncode}\n{done.stdout}{done.stderr}"
            )
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} {mode} child timed out") from error
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def load_manifest() -> Dict[str, Any]:
    try:
        return json.loads(MANIFEST.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise BenchError(f"cannot read {MANIFEST}: {error}") from error


def _metrics(values: Dict[str, float], catalogue: List[Dict[str, str]]) -> Dict[str, Dict[str, Any]]:
    missing = [entry["name"] for entry in catalogue if entry["name"] not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in catalogue
    }


def _checks_pass(unit: Dict[str, Any]) -> bool:
    return all(check["ok"] for check in unit["checks"].values())


def measure_end_to_end(
    workload: str, seed: int, smoke: bool, base: Path, manifest: Dict[str, Any]
) -> Dict[str, Any]:
    """One untraced run plus extra cold set-ups; the end-to-end metrics."""
    unit = spawn("unit", workload, seed, smoke, base)
    setups = list(unit["setup_samples_s"])
    while not smoke and len(setups) < SETUP_SAMPLES:
        if len(setups) >= 2 and sum(setups) >= SETUP_BUDGET_SECONDS:
            break
        setups.append(spawn("setup", workload, seed, smoke, base)["setup_s"])
    values = dict(unit["times"], setup_s=statistics.median(setups))
    return {
        "trace": 0,
        "correct": _checks_pass(unit),
        "attempted": unit["attempted"],
        "failed": unit["failed"],
        "metrics": _metrics(values, manifest["end_to_end"]),
        "setup_samples_s": setups,
        "unit": unit,
    }


def measure_traced(
    workload: str,
    seed: int,
    smoke: bool,
    base: Path,
    manifest: Dict[str, Any],
    untraced: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A traced run beside an untraced one; the per-layer metrics."""
    if untraced is None:
        untraced = spawn("unit", workload, seed, smoke, base)
    traced = spawn("unit", workload, seed, smoke, base, traced=True)
    values = dict(traced["per_layer"])
    values["trace.overhead_ratio"] = traced["times"]["wall_s"] / untraced["times"]["wall_s"]
    # Rates of the untraced run, so the tracer's overhead is not in them.
    for name in ("persist.blocks_per_s", "persist.recover_s", "persist.read_blocks_per_s"):
        values[name] = untraced["run_values"][name]
    checks = traced["checks"]
    if traced["deterministic"]:
        checks["traced_digests_equal_untraced"] = {
            "ok": traced["digests"] == untraced["digests"],
            "detail": f"{traced['digests']} vs {untraced['digests']}",
        }
    checks["trace_unresolved_is_empty"] = {
        "ok": not traced["unresolved"],
        "detail": str(traced["unresolved"][:5]),
    }
    return {
        "trace": 1,
        "correct": _checks_pass(traced) and _checks_pass(untraced),
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": _metrics(values, manifest["per_layer"]),
        "unit": traced,
    }


# -- run record ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) >= 3:
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_record(seed: int, base: Path) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "commit": _commit(),
        "seed": seed,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "load_average_1m": load,
        # Another busy process on a 2-core box shows in every host-time metric.
        "noisy": load > nproc / 2,
        "workdir_filesystem": _filesystem_of(base.resolve()),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- printing --------------------------------------------------------------------


def print_measurement(workload: str, measurement: Dict[str, Any]) -> None:
    unit = measurement["unit"]
    label = "traced" if measurement["trace"] else "untraced"
    print(f"== {workload} ({label}, seed {unit['seed']}{', smoke' if unit['smoke'] else ''})")
    print("spec " + json.dumps(unit["spec"], sort_keys=True, default=str))
    for name, metric in measurement["metrics"].items():
        print(f"  {name:<40} {metric['value']!r:>24} {metric['unit']}")
    print(f"  {'attempted':<40} {measurement['attempted']!r:>24} count")
    print(f"  {'failed':<40} {measurement['failed']!r:>24} count")
    for name, value in unit["raw_times"].items():
        print(f"  raw {name:<36} {value!r:>24} s (as the clocks read)")
    for name, value in unit["digests"].items():
        print(f"  {name:<40} {value}")
    for name, value in unit["info"].items():
        print(f"  info {name:<35} {value}")
    for name, check in unit["checks"].items():
        verdict = "ok  " if check["ok"] else "FAIL"
        print(f"  check {verdict} {name}: {check['detail']}")


def _summary(samples: List[float]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {"runs": samples, "median": statistics.median(samples)}
    if len(samples) > 1:
        quartiles = statistics.quantiles(samples, n=4)
        summary["q1"], summary["q3"] = quartiles[0], quartiles[2]
    return summary


def summarize(measurements: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-run raw values plus median (and quartiles) of each metric."""
    first = measurements[0]
    return {
        name: dict(_summary([m["metrics"][name]["value"] for m in measurements]), unit=metric["unit"])
        for name, metric in first["metrics"].items()
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=5, help="workload seed (default 5, the repo's BENCH_SEED)")
    parser.add_argument("--seconds", type=float, default=None, help="recorded; a run's work is fixed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="repeat each measurement K times")
    parser.add_argument("--smoke", action="store_true", help="every workload at about 1/10 size")
    parser.add_argument("--out", help="write the full result set as JSON")
    parser.add_argument(
        "--workdir",
        default=str(ROOT / ".bench_work"),
        help="where scratch run directories and trace files go (inside the checkout)",
    )
    parser.add_argument("--child", choices=("unit", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    parser.add_argument("--child-traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    # A terminated benchmark must not leave its child running: turn the
    # signal into an exception so subprocess.run kills and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    manifest = load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    selected = [args.workload] if args.workload else names
    base = Path(args.workdir)
    result: Dict[str, Any] = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "record": run_record(args.seed, base),
        "seconds_requested": args.seconds,
        "workloads": {},
    }
    last: Dict[str, Any] = {}
    correct = True
    try:
        for workload in selected:
            entry: Dict[str, Any] = {}
            # Suite mode measures end to end always and traces on request;
            # with --workload, --trace picks the one kind the caller wants.
            if args.workload is None or not args.trace:
                runs = [
                    measure_end_to_end(workload, args.seed, args.smoke, base, manifest)
                    for _ in range(args.runs)
                ]
                print_measurement(workload, runs[-1])
                entry["end_to_end"] = summarize(runs)
                entry["end_to_end_runs"] = runs
                last = runs[-1]
                if args.runs > 1:
                    last = dict(last, metrics={
                        name: {"value": s["median"], "unit": s["unit"]}
                        for name, s in entry["end_to_end"].items()
                    })  # fmt: skip
                correct = correct and all(run["correct"] for run in runs)
            if args.trace:
                untraced = entry["end_to_end_runs"][-1]["unit"] if "end_to_end_runs" in entry else None
                traced = measure_traced(workload, args.seed, args.smoke, base, manifest, untraced)
                print_measurement(workload, traced)
                entry["per_layer"] = summarize([traced])
                entry["traced_run"] = traced
                last = traced
                correct = correct and traced["correct"]
            # digests and quality of the untraced run where there is one
            unit = (entry.get("end_to_end_runs") or [last])[-1]["unit"]
            entry.update(
                digests=unit["digests"],
                deterministic=unit["deterministic"],
                quality={name: unit["run_values"][name] for name in QUALITY},
                attempted=unit["attempted"],
                failed=unit["failed"],
                spec=unit["spec"],
                versions=unit["versions"],
            )
            result["workloads"][workload] = entry
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    finally:
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()
    if result["record"]["noisy"]:
        print("note: load average at start exceeded nproc/2 — host-time metrics are noisy")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
        print(f"wrote {args.out}")
    if args.workload:
        print(json.dumps({
            "correct": correct,
            "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": last["metrics"],
        }))  # fmt: skip
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
