"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``  — one experiment with explicit parameters; prints the summary
  and optionally archives it as JSON/CSV.  ``--persist DIR`` makes the
  run durable (journal + SQLite store + snapshots in DIR).
* ``resume`` — continue a durable run after a pause, kill, or crash.
* ``inspect`` — health-check a durable run directory; exits non-zero on
  unrecoverable corruption.  Reports hot- vs cold-tier byte footprints.
* ``prune`` — compact a durable run: move checkpointed history below the
  retention horizon into the cold archive, then VACUUM the hot store.
* ``archive inspect`` / ``archive fetch`` — verify and read the cold
  archive tier (``archive.jsonl``) a compaction leaves behind.
* ``fig4`` / ``fig5`` / ``fig6`` — regenerate a paper figure from the
  terminal (the benchmarks do the same under pytest).
* ``live run`` — the same protocol over real TCP sockets on localhost:
  N nodes as asyncio tasks (or ``--procs`` subprocesses), the seeded
  workload, and the same metrics/obs artefacts as ``run``.
* ``live parity`` — the sim/live parity oracle: one seeded workload on
  both runtimes must converge to the identical chain digest.
* ``chaos run`` — a seeded Byzantine fault-injection scenario (adversary
  mix + optional churn/partition/kill overlay) on either fabric, ending
  in a safety/liveness verdict (``chaos_verdict.json``).
* ``fed run`` / ``fed resume`` / ``fed chaos`` — hierarchical federation:
  K sharded clusters bridged by fog super-peers, with durable snapshots,
  per-cluster obs artefacts, and a blast-radius chaos verdict.
* ``trace summary`` / ``trace export`` / ``trace merge`` / ``trace
  flame`` — inspect and convert the observability artefacts a ``run
  --obs DIR`` leaves behind (``merge --trace-out`` stitches the
  per-process traces of a ``--procs`` run; ``flame`` renders the
  continuous profiler's folded stacks).
* ``top`` — terminal live view over a ``--telemetry`` stream or
  endpoint: chain height, interval EWMA, mempool depth, quarantines,
  msgs/sec, and the fleet rollup for federated runs.
* ``report`` — render one observed run's timeline, events, and verdict
  as a terminal report plus a self-contained HTML page.
* ``compare`` — diff two observed runs with threshold-based regression
  verdicts; exits non-zero when the candidate regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.config import PAPER_CONFIG, LifecycleSpec
from repro.core.errors import PersistError
from repro.metrics.export import metrics_to_record, write_csv, write_json
from repro.metrics.report import render_table
from repro.persist import (
    PersistConfig,
    PersistentRunResult,
    inspect_run,
    resume_run,
    run_persistent,
)
from repro.sim.runner import ExperimentSpec, run_experiment
from repro.sim.scenarios import data_amount_scenario, placement_scenario
from repro.version import package_version


def _print_run_summary(title: str, metrics) -> None:
    print()
    print(
        render_table(
            title,
            ["metric", "value"],
            [
                ["chain height", metrics.chain_height()],
                ["mean block interval (s)", round(metrics.mean_block_interval(), 2)],
                ["avg delivery time (s)", round(metrics.average_delivery_time(), 3)],
                ["deliveries / failed", f"{len(metrics.delivery_times)} / {metrics.failed_requests}"],
                ["storage Gini", round(metrics.storage_gini(), 4)],
                ["avg traffic per node (MB)", round(metrics.average_node_megabytes(), 2)],
                ["data items produced", metrics.data_items_produced],
            ],
        )
    )


def _export(records, json_path: Optional[str], csv_path: Optional[str]) -> None:
    if json_path:
        print(f"wrote {write_json(records, json_path)}")
    if csv_path:
        print(f"wrote {write_csv(records, csv_path)}")


def _apply_lifecycle(config, args: argparse.Namespace):
    """Fold the --retain / --checkpoint-every knobs into a config."""
    interval = getattr(args, "checkpoint_every", None)
    retain = getattr(args, "retain", None)
    if interval is not None:
        config = replace(config, checkpoint_interval=interval)
    if retain is not None:
        if config.checkpoint_interval <= 0:
            raise SystemExit(
                "error: --retain requires --checkpoint-every K "
                "(pruning is checkpoint-anchored)"
            )
        config = replace(config, lifecycle=LifecycleSpec(retain_blocks=retain))
    return config


def _persist_config(args: argparse.Namespace) -> PersistConfig:
    try:
        return PersistConfig(
            journal_every_seconds=args.journal_every,
            snapshot_every_seconds=args.snapshot_every,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def _finish_durable(outcome: PersistentRunResult, label: str) -> int:
    if not outcome.completed:
        print(
            f"paused at t={outcome.clock:g}s — resume with "
            f"`repro resume {outcome.directory}`"
        )
        return 0
    _print_run_summary(label, outcome.metrics)
    if outcome.resumed_from is not None:
        print(
            f"resumed from t={outcome.resumed_from:g}s; "
            f"{outcome.blocks_verified} re-mined block(s) verified "
            "against the pre-crash journal"
        )
    print(f"run directory: {outcome.directory}")
    return 0


def _obs_enable(
    args: argparse.Namespace,
    default_interval: float,
    origin: str = "n0",
    out=None,
):
    """Enable observability for a CLI command (None when --obs is absent).

    Also arms the live telemetry plane when asked: ``--telemetry [PORT]``
    starts the streaming JSONL ring plus the /metrics + /snapshot
    endpoint, and ``--profile`` starts the continuous stack sampler.
    ``out`` redirects the diagnostics (the live ``node`` command must
    keep stdout JSON-only).
    """
    telemetry = getattr(args, "telemetry", None)
    profile = getattr(args, "profile", False)
    if not args.obs:
        if telemetry is not None or profile:
            raise SystemExit("error: --telemetry/--profile require --obs DIR")
        return None
    stream = out if out is not None else sys.stdout
    interval = args.obs_sample if args.obs_sample is not None else default_interval
    session = obs.enable(timeline_interval=interval, origin=origin)
    if telemetry is not None:
        session.start_stream(args.obs)
        port = session.start_telemetry(port=telemetry)
        print(
            f"telemetry: http://127.0.0.1:{port}/metrics "
            f"(streaming to {Path(args.obs) / obs.STREAM_NAME})",
            file=stream,
        )
    if profile:
        session.start_profiler(hz=getattr(args, "profile_hz", None))
    return session


def _obs_export(session, args: argparse.Namespace, out=None) -> None:
    stream = out if out is not None else sys.stdout
    had_profiler = session.profiler is not None
    had_stream = session.stream is not None
    target = session.export(args.obs, timebase=args.obs_timebase)
    obs.disable()
    print(
        f"wrote {target / obs.TRACE_NAME} (open in https://ui.perfetto.dev)",
        file=stream,
    )
    print(f"wrote {target / obs.METRICS_NAME}", file=stream)
    if session.timeline is not None:
        print(
            f"wrote {target / obs.TIMELINE_NAME} "
            f"({len(session.timeline.samples)} samples)",
            file=stream,
        )
    if session.monitors is not None:
        verdict = session.monitors.verdict()
        print(
            f"wrote {target / obs.VERDICT_NAME} "
            f"(verdict: {verdict['status']}, {verdict['alerts']} alert(s))",
            file=stream,
        )
    if had_profiler:
        print(
            f"wrote {target / obs.PROFILE_NAME} "
            f"(render with `repro trace flame {target} --out flame.svg`)",
            file=stream,
        )
    if had_stream:
        print(f"telemetry stream: {target / obs.STREAM_NAME}", file=stream)


def cmd_run(args: argparse.Namespace) -> int:
    # Default timeline cadence: one sample per expected block interval.
    session = _obs_enable(args, default_interval=args.block_interval)
    try:
        return _cmd_run_inner(args)
    finally:
        if session is not None:
            _obs_export(session, args)


def _cmd_run_inner(args: argparse.Namespace) -> int:
    config = replace(
        PAPER_CONFIG,
        data_items_per_minute=args.rate,
        placement_solver=args.solver,
        expected_block_interval=args.block_interval,
    )
    config = _apply_lifecycle(config, args)
    spec = ExperimentSpec(
        node_count=args.nodes,
        config=config,
        seed=args.seed,
        duration_minutes=args.minutes,
    )
    label = (
        f"Run: {args.nodes} nodes, {args.minutes:g} min, "
        f"{args.rate:g} items/min, solver={args.solver}, seed={args.seed}"
    )
    if args.persist:
        outcome = run_persistent(
            spec,
            args.persist,
            persist=_persist_config(args),
            stop_after_seconds=args.stop_after,
        )
        status = _finish_durable(outcome, label)
        if status or not outcome.completed:
            return status
        result = outcome.result
    else:
        if args.stop_after is not None:
            raise SystemExit("--stop-after requires --persist DIR")
        result = run_experiment(spec)
        _print_run_summary(label, result.metrics)
    record = metrics_to_record(
        result.metrics, seed=args.seed, rate=args.rate, solver=args.solver
    )
    _export([record], args.json, args.csv)
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    # The paper-default block interval is the sampling fallback; a resumed
    # run's actual config is only known once the snapshot loads, so pass
    # --obs-sample to match a non-default --block-interval.
    session = _obs_enable(
        args, default_interval=PAPER_CONFIG.expected_block_interval
    )
    try:
        outcome = resume_run(args.directory, stop_after_seconds=args.stop_after)
        return _finish_durable(outcome, f"Resumed run: {args.directory}")
    finally:
        if session is not None:
            _obs_export(session, args)


def _format_bytes(count: int) -> str:
    if count >= 1024 * 1024:
        return f"{count / (1024 * 1024):.1f} MiB"
    if count >= 1024:
        return f"{count / 1024:.1f} KiB"
    return f"{count} B"


def cmd_inspect(args: argparse.Namespace) -> int:
    report = inspect_run(args.directory)
    hot = report.journal_bytes + report.store_bytes + report.snapshot_bytes
    rows = [
        ["status", report.status],
        ["journal records", report.journal_records],
        ["journal chain height", report.journal_height],
        ["store height / blocks", f"{report.store_height} / {report.store_blocks}"],
        ["store metadata items", report.store_metadata],
        ["store tip", (report.store_tip or "-")[:16]],
        ["store pruned below", report.store_pruned_below],
        ["hot bytes (journal/store/snapshots)",
         f"{_format_bytes(hot)} ({_format_bytes(report.journal_bytes)} / "
         f"{_format_bytes(report.store_bytes)} / "
         f"{_format_bytes(report.snapshot_bytes)})"],
        ["cold bytes (archive)",
         f"{_format_bytes(report.archive_bytes)} "
         f"({report.archive_blocks} block(s), "
         f"{report.archive_checkpoints} checkpoint(s))"],
        ["snapshots", len(report.snapshots)],
    ]
    for info in report.snapshots:
        rows.append(
            [
                f"  {info.path.name}",
                f"t={info.clock:g}s h={info.height} ({info.blob_bytes} B blob)",
            ]
        )
    print()
    print(render_table(f"Inspect: {report.directory}", ["field", "value"], rows))
    for note in report.notes:
        print(f"note: {note}")
    for problem in report.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if not report.ok:
        print(f"{len(report.problems)} problem(s) found", file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    """Offline chainstore compaction: hot rows → cold archive + VACUUM."""
    from repro.core.blockchain import ChainState
    from repro.lifecycle import BlockArchive, CheckpointRecord, retention_horizon
    from repro.lifecycle.archive import ARCHIVE_NAME
    from repro.persist.chainstore import ChainStore
    from repro.persist.resume import (
        STORE_NAME,
        read_manifest,
        spec_from_dict,
    )

    directory = Path(args.directory)
    manifest = read_manifest(directory)
    spec = spec_from_dict(manifest["spec"])
    config = spec.config
    if args.checkpoint_every is not None:
        config = replace(config, checkpoint_interval=args.checkpoint_every)
    retain = args.retain
    if retain is None and config.lifecycle is not None:
        retain = config.lifecycle.retain_blocks
    if retain is None or config.checkpoint_interval <= 0:
        raise SystemExit(
            "error: no lifecycle policy — pass --retain N and "
            "--checkpoint-every K (or run with them)"
        )
    config = replace(config, lifecycle=LifecycleSpec(retain_blocks=retain))

    with ChainStore(directory / STORE_NAME) as store:
        height = store.height()
        floor = store.pruned_below()
        horizon = retention_horizon(config, height)
        if horizon <= floor:
            print(
                f"nothing to prune (height {height}, floor {floor}, "
                f"horizon {horizon})"
            )
            return 0
        archive = BlockArchive(directory / ARCHIVE_NAME)
        node_ids = sorted(store.accounts()) or list(range(spec.node_count))
        # Replay the ledger to the horizon (cold blocks from the archive,
        # the rest from the store) so the checkpoint record pins the
        # at-horizon digest, not the tip's.
        state = ChainState(node_ids, config)
        horizon_block = None
        for index in range(horizon + 1):
            if index < archive.archived_below:
                block = archive.fetch(index)
            else:
                block = store.block_by_index(index)
            if block is None:
                raise SystemExit(f"error: block {index} is missing from the store")
            state.apply_block(block)
            horizon_block = block
        record = CheckpointRecord.pin(horizon_block, state)
        before = store.footprint_bytes()
        moved = store.compact(archive, horizon, {horizon: record})
        after = store.footprint_bytes()
        print()
        print(
            render_table(
                f"Prune: {directory}",
                ["field", "value"],
                [
                    ["chain height", height],
                    ["pruned to checkpoint", horizon],
                    ["blocks moved to archive", moved],
                    ["checkpoint digest", record.digest()[:16]],
                    ["hot store bytes",
                     f"{_format_bytes(before)} -> {_format_bytes(after)}"],
                    ["archive bytes", _format_bytes(archive.size_bytes)],
                ],
            )
        )
    return 0


def _open_archive(argument: str):
    """Accept a run directory or a direct archive file path."""
    from repro.lifecycle import BlockArchive
    from repro.lifecycle.archive import ARCHIVE_NAME

    path = Path(argument)
    if path.is_dir():
        path = path / ARCHIVE_NAME
    if not path.exists():
        raise SystemExit(f"error: no archive at {path}")
    return BlockArchive(path)


def cmd_archive_inspect(args: argparse.Namespace) -> int:
    archive = _open_archive(args.source)
    stats = archive.stats()
    checkpoints = ", ".join(map(str, stats.checkpoints)) or "-"
    print()
    print(
        render_table(
            f"Archive: {stats.path}",
            ["field", "value"],
            [
                ["blocks (contiguous prefix)", f"[0, {stats.archived_below})"],
                ["bytes", _format_bytes(stats.bytes)],
                ["pinned checkpoints", checkpoints],
                ["torn tail dropped (bytes)", stats.torn_tail_bytes],
            ],
        )
    )
    problems = archive.verify_integrity()
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_archive_fetch(args: argparse.Namespace) -> int:
    from repro.core.serialization import block_to_dict

    archive = _open_archive(args.source)
    stop = args.stop if args.stop is not None else args.index + 1
    blocks = list(archive.fetch_range(args.index, stop))
    if not blocks:
        print(
            f"error: archive holds [0, {archive.archived_below}); "
            f"nothing in [{args.index}, {stop})",
            file=sys.stderr,
        )
        return 1
    for block in blocks:
        print(json.dumps(block_to_dict(block), sort_keys=True))
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    records = []
    rows = []
    for nodes in args.node_counts:
        for rate in args.rates:
            metrics = run_experiment(
                data_amount_scenario(nodes, rate, seed=args.seed)
            ).metrics
            records.append(metrics_to_record(metrics, rate=rate, seed=args.seed))
            rows.append(
                [
                    nodes,
                    rate,
                    round(metrics.average_node_megabytes(), 1),
                    round(metrics.storage_gini(), 4),
                    round(metrics.average_delivery_time(), 3),
                ]
            )
    print()
    print(
        render_table(
            "Fig. 4 — transmission / Gini / delivery under data amounts",
            ["nodes", "items/min", "MB/node", "Gini", "delivery (s)"],
            rows,
        )
    )
    _export(records, args.json, args.csv)
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    records = []
    rows = []
    for nodes in args.node_counts:
        cells = {}
        for solver in ("greedy", "random"):
            metrics = run_experiment(
                placement_scenario(nodes, solver, seed=args.seed)
            ).metrics
            cells[solver] = metrics
            records.append(metrics_to_record(metrics, solver=solver, seed=args.seed))
        rows.append(
            [
                nodes,
                round(cells["greedy"].average_delivery_time(), 3),
                round(cells["random"].average_delivery_time(), 3),
                round(cells["greedy"].average_node_megabytes(), 1),
                round(cells["random"].average_node_megabytes(), 1),
            ]
        )
    print()
    print(
        render_table(
            "Fig. 5 — optimal vs random placement",
            ["nodes", "opt delivery", "rand delivery", "opt MB/node", "rand MB/node"],
            rows,
        )
    )
    _export(records, args.json, args.csv)
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.pos import compute_amendment, compute_hit, mining_delay
    from repro.core.pow import PowMiner
    from repro.energy.meter import EnergyMeter

    rng = np.random.default_rng(args.seed)
    pow_meter = EnergyMeter()
    pow_miner = PowMiner(pow_meter, difficulty=args.difficulty)
    pos_meter = EnergyMeter()
    amendment = compute_amendment(2**64, 1, 25.0, 1.0)

    rows = []
    pow_elapsed = pos_elapsed = 0.0
    pow_blocks = pos_blocks = 0
    pos_hash = f"cli-{args.seed}"
    for checkpoint in range(12, args.minutes + 1, 12):
        while pow_elapsed < checkpoint * 60 and not pow_meter.depleted:
            result = pow_miner.mine_block(rng)
            pow_elapsed += result.duration_seconds
            pow_blocks += 1
        while pos_elapsed < checkpoint * 60:
            hit = compute_hit(pos_hash, "cli-account", 2**64)
            pos_hash += "x"
            delay = mining_delay(hit, 1.0, 1.0, amendment)
            pos_meter.charge_pos_ticks(delay)
            pos_elapsed += delay
            pos_blocks += 1
        rows.append(
            [
                checkpoint,
                pow_blocks,
                round(pow_meter.remaining_percent, 1),
                pos_blocks,
                round(pos_meter.remaining_percent, 1),
            ]
        )
    print()
    print(
        render_table(
            f"Fig. 6 — battery vs mining time (PoW difficulty {args.difficulty})",
            ["minutes", "PoW blocks", "PoW battery %", "PoS blocks", "PoS battery %"],
            rows,
        )
    )
    return 0


def _live_spec(args: argparse.Namespace):
    """Build a LiveSpec from the shared ``live`` flag set."""
    from repro.net.harness import KillSpec, LiveSpec

    config = replace(
        PAPER_CONFIG,
        data_items_per_minute=args.rate,
        placement_solver=args.solver,
        expected_block_interval=args.block_interval,
    )
    kill = None
    if getattr(args, "kill", None) is not None:
        kill = KillSpec(
            node_id=args.kill,
            at_minutes=args.kill_at,
            down_minutes=args.kill_down,
        )
    try:
        return LiveSpec(
            node_count=args.nodes,
            config=config,
            seed=args.seed,
            duration_minutes=args.minutes,
            time_scale=args.time_scale,
            base_port=args.base_port,
            kill=kill,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def cmd_live_run(args: argparse.Namespace) -> int:
    if args.procs:
        # The node processes own the obs plane (one origin each); the
        # parent only launches, scrapes, and merges their artefacts.
        return _live_run_procs(args)
    session = _obs_enable(args, default_interval=args.block_interval)
    try:
        return _cmd_live_run_inner(args)
    finally:
        if session is not None:
            _obs_export(session, args)


def _cmd_live_run_inner(args: argparse.Namespace) -> int:
    from repro.net.harness import run_live_experiment

    spec = _live_spec(args)
    result = run_live_experiment(spec)
    label = (
        f"Live run: {args.nodes} nodes, {args.minutes:g} min at "
        f"{args.time_scale:g}x wall, seed={args.seed}"
    )
    _print_run_summary(label, result.metrics)
    summary = result.summary()
    print(
        f"chain digest {result.chain_digest[:16]}… on all nodes: "
        f"{summary['digests_agree']}; reconnects: {result.reconnects}"
    )
    if result.resynced is not None:
        print(f"killed node resynced: {result.resynced}")
    if args.json:
        record = metrics_to_record(
            result.metrics, seed=args.seed, rate=args.rate, solver=args.solver
        )
        record.update(summary)
        _export([record], args.json, None)
    return 0 if result.healthy else 1


def _live_run_procs(args: argparse.Namespace) -> int:
    """Host each node in its own subprocess on a fixed port range.

    With ``--obs DIR`` each node process writes its own artefacts into
    ``DIR/node{i}`` (origin ``n{i}``); after the run the parent stitches
    the per-process traces into ``DIR/trace_merged.json`` and merges the
    metrics snapshots.  ``--telemetry [BASE]`` gives node ``i`` the
    endpoint port ``BASE+i`` and the parent scrapes node 0 mid-run.
    """
    import subprocess
    import time as _time

    if args.kill is not None:
        raise SystemExit("error: --kill is not supported with --procs")
    telemetry = getattr(args, "telemetry", None)
    if (telemetry is not None or getattr(args, "profile", False)) and not args.obs:
        raise SystemExit("error: --telemetry/--profile require --obs DIR")
    base_port = args.base_port or 46200
    telemetry_base = (telemetry or 47300) if telemetry is not None else None
    start_at = _time.time() + args.start_lead
    command = [
        sys.executable, "-m", "repro", "live", "node",
        "--nodes", str(args.nodes),
        "--minutes", str(args.minutes),
        "--seed", str(args.seed),
        "--rate", str(args.rate),
        "--solver", args.solver,
        "--block-interval", str(args.block_interval),
        "--time-scale", str(args.time_scale),
        "--base-port", str(base_port),
        "--start-at", repr(start_at),
    ]

    def _node_args(node_id: int) -> List[str]:
        extra = ["--node-id", str(node_id)]
        if args.obs:
            extra += ["--obs", str(Path(args.obs) / f"node{node_id}")]
            extra += ["--obs-timebase", args.obs_timebase]
            if args.obs_sample is not None:
                extra += ["--obs-sample", str(args.obs_sample)]
            if telemetry_base is not None:
                extra += ["--telemetry", str(telemetry_base + node_id)]
            if getattr(args, "profile", False):
                extra.append("--profile")
                if getattr(args, "profile_hz", None) is not None:
                    extra += ["--profile-hz", str(args.profile_hz)]
        return extra

    procs = [
        subprocess.Popen(
            command + _node_args(node_id),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for node_id in range(args.nodes)
    ]
    if telemetry_base is not None:
        _scrape_node_zero(args, start_at, telemetry_base)
    budget = (start_at - _time.time()) + args.minutes * 60.0 * args.time_scale + 60.0
    results = []
    failed = False
    for node_id, proc in enumerate(procs):
        try:
            out, err = proc.communicate(timeout=max(10.0, budget))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            print(f"node {node_id}: timed out", file=sys.stderr)
            failed = True
            continue
        if proc.returncode != 0:
            print(f"node {node_id}: exit {proc.returncode}\n{err}", file=sys.stderr)
            failed = True
            continue
        try:
            results.append(json.loads(out.strip().splitlines()[-1]))
        except (json.JSONDecodeError, IndexError):
            print(f"node {node_id}: unparsable output: {out!r}", file=sys.stderr)
            failed = True
    if failed or not results:
        return 1
    digests = {record["chain_digest"] for record in results}
    rows = [
        [
            record["node"],
            record["chain_height"],
            record["chain_digest"][:16],
            record["blocks_mined"],
            record["reconnects"],
        ]
        for record in sorted(results, key=lambda r: r["node"])
    ]
    print()
    print(
        render_table(
            f"Live run ({args.nodes} processes, {args.minutes:g} min, "
            f"seed={args.seed})",
            ["node", "height", "digest", "mined", "reconnects"],
            rows,
        )
    )
    agree = len(digests) == 1
    print(f"chain digests agree across processes: {agree}")
    if args.obs:
        _merge_proc_artefacts(args)
    return 0 if agree else 1


def _scrape_node_zero(
    args: argparse.Namespace, start_at: float, telemetry_base: int
) -> None:
    """One mid-run /metrics scrape against node 0 (warn, never fail)."""
    import time as _time
    import urllib.request

    wake = start_at + min(10.0, args.minutes * 60.0 * args.time_scale / 2.0)
    delay = wake - _time.time()
    if delay > 0:
        _time.sleep(delay)
    url = f"http://127.0.0.1:{telemetry_base}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
    except OSError as error:
        print(f"telemetry scrape: failed ({url}: {error})", file=sys.stderr)
        return
    series = [
        line for line in text.splitlines() if line and not line.startswith("#")
    ]
    print(f"telemetry scrape: ok ({len(series)} series from {url})")


def _merge_proc_artefacts(args: argparse.Namespace) -> None:
    """Stitch per-process obs output under ``--obs DIR`` into one view."""
    root = Path(args.obs)
    sources = [
        path
        for path in (root / f"node{i}" for i in range(args.nodes))
        if (path / obs.TRACE_NAME).exists()
    ]
    if not sources:
        print("no per-process obs artefacts to merge", file=sys.stderr)
        return
    stats = obs.merge_trace_files(sources, out=root / obs.MERGED_TRACE_NAME)
    print(
        f"wrote {stats['out']} ({stats['events']} events, "
        f"{stats['traces']} traces from {len(stats['origins'])} process(es))"
    )
    print(f"cross-process traces: {stats['cross_process_traces']}")
    snapshots = []
    for path in sources:
        metrics_file = path / obs.METRICS_NAME
        if metrics_file.exists():
            snapshots.append(json.loads(metrics_file.read_text(encoding="utf-8")))
    if snapshots:
        merged = obs.merge_snapshots(snapshots)
        out_path = root / "metrics_merged.json"
        with out_path.open("w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out_path} ({len(merged['instruments'])} instruments)")


def cmd_live_parity(args: argparse.Namespace) -> int:
    from repro.net.harness import parity_report

    report = parity_report(_live_spec(args))
    print()
    print(
        render_table(
            f"Parity: {args.nodes} nodes, {args.minutes:g} min, seed={args.seed}",
            ["side", "height", "chain digest"],
            [
                ["simnet", report["sim_height"], report["sim_digest"][:32]],
                ["live", report["live_height"], report["live_digest"][:32]],
            ],
        )
    )
    print(f"match: {report['match']}")
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")
    return 0 if report["match"] else 1


def cmd_live_node(args: argparse.Namespace) -> int:
    """Internal: host one node of a multi-process cluster (see --procs)."""
    import asyncio

    from repro.net.harness import host_single_node

    # stdout is a protocol surface here — the parent parses the last line
    # as the result JSON — so every obs diagnostic goes to stderr.
    session = _obs_enable(
        args,
        default_interval=args.block_interval,
        origin=f"n{args.node_id}",
        out=sys.stderr,
    )
    spec = _live_spec(args)
    try:
        result = asyncio.run(host_single_node(spec, args.node_id, args.start_at))
    finally:
        if session is not None:
            _obs_export(session, args, out=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


def _parse_adversaries(entries: List[str]) -> dict:
    """Parse repeated ``--adversary TYPE=ID[,ID...]`` flags."""
    from repro.chaos import ADVERSARY_TYPES

    adversaries: dict = {}
    for entry in entries or []:
        behavior, _, ids = entry.partition("=")
        behavior = behavior.strip()
        if behavior not in ADVERSARY_TYPES:
            raise SystemExit(
                f"error: unknown adversary {behavior!r} "
                f"(known: {', '.join(sorted(ADVERSARY_TYPES))})"
            )
        try:
            node_ids = tuple(int(part) for part in ids.split(",") if part.strip())
        except ValueError:
            raise SystemExit(f"error: bad node list in --adversary {entry!r}")
        if not node_ids:
            raise SystemExit(
                f"error: --adversary {entry!r} names no nodes "
                "(expected TYPE=ID[,ID...])"
            )
        adversaries[behavior] = adversaries.get(behavior, ()) + node_ids
    return adversaries


def _chaos_spec(args: argparse.Namespace):
    from repro.chaos import ChaosSpec, PartitionSpec
    from repro.chaos.scenario import KillPlan
    from repro.sim.runner import ChurnSpec

    config = replace(
        PAPER_CONFIG,
        data_items_per_minute=args.rate,
        expected_block_interval=args.block_interval,
        verify_metadata_signatures=args.verify_signatures,
    )
    churn = ChurnSpec(node_fraction=args.churn) if args.churn is not None else None
    partition = None
    if args.partition:
        try:
            at_text, _, heal_text = args.partition.partition(":")
            partition = PartitionSpec(
                at_minutes=float(at_text), heal_minutes=float(heal_text)
            )
        except ValueError as error:
            raise SystemExit(
                f"error: --partition expects AT:HEAL minutes ({error})"
            )
    kill = None
    if args.kill is not None:
        kill = KillPlan(
            node_id=args.kill,
            at_minutes=args.kill_at,
            down_minutes=args.kill_down,
        )
    try:
        return ChaosSpec(
            node_count=args.nodes,
            config=config,
            seed=args.seed,
            duration_minutes=args.minutes,
            adversaries=_parse_adversaries(args.adversary),
            start_minutes=args.start,
            stop_minutes=args.stop,
            churn=churn,
            partition=partition,
            kill=kill,
            fabric=args.fabric,
            time_scale=args.time_scale,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def cmd_chaos_run(args: argparse.Namespace) -> int:
    session = _obs_enable(args, default_interval=args.block_interval)
    try:
        return _cmd_chaos_run_inner(args)
    finally:
        if session is not None:
            _obs_export(session, args)


def _cmd_chaos_run_inner(args: argparse.Namespace) -> int:
    from repro.chaos import run_chaos
    from repro.chaos.runner import CHAOS_VERDICT_NAME

    spec = _chaos_spec(args)
    result = run_chaos(spec)
    verdict = result.verdict
    mix = (
        ", ".join(
            f"{behavior}={list(ids)}"
            for behavior, ids in sorted(verdict["adversaries"].items())
        )
        or "none"
    )
    safety = verdict["safety"]
    liveness = verdict["liveness"]
    admission = verdict["admission"]
    rejections = (
        ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(admission["rejections"].items())
        )
        or "-"
    )
    print()
    print(
        render_table(
            f"Chaos: {spec.node_count} nodes on {spec.fabric}, "
            f"{spec.duration_minutes:g} min, seed={spec.seed}",
            ["field", "value"],
            [
                ["verdict", verdict["status"]],
                ["adversaries", mix],
                ["safety ok", safety["ok"]],
                ["liveness ok", liveness["ok"]],
                ["honest common prefix", liveness["common_prefix_height"]],
                ["honest height", verdict["honest_height"]],
                ["honest digest", verdict["honest_digest"][:16]],
                ["rejections", rejections],
                ["quarantined peers", admission["quarantined_peers"] or "-"],
            ],
        )
    )
    for issue in liveness["issues"]:
        print(f"liveness: {issue}")
    if not safety["ok"]:
        for field_name in (
            "invalid_chains",
            "checkpoint_violations",
            "honest_quarantined",
        ):
            if safety[field_name]:
                print(f"SAFETY: {field_name}: {safety[field_name]}", file=sys.stderr)
        if not safety["genesis_consistent"]:
            print("SAFETY: honest genesis blocks differ", file=sys.stderr)
    targets = []
    if args.json:
        targets.append(Path(args.json))
    if args.obs:
        targets.append(Path(args.obs) / CHAOS_VERDICT_NAME)
    for target in targets:
        print(f"wrote {result.write_verdict(target)}")
    return 1 if verdict["status"] == "critical" else 0


def _fed_spec(args: argparse.Namespace):
    from repro.federation import FederationSpec

    config = replace(
        PAPER_CONFIG,
        data_items_per_minute=args.rate,
        expected_block_interval=args.block_interval,
    )
    config = _apply_lifecycle(config, args)
    try:
        return FederationSpec(
            cluster_count=args.clusters,
            nodes_per_cluster=args.nodes,
            config=config,
            seed=args.seed,
            duration_minutes=args.minutes,
            super_peer_count=args.super_peers,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def _print_fed_summary(title: str, aggregate: dict) -> None:
    print()
    print(
        render_table(
            title,
            ["metric", "value"],
            [
                ["clusters x nodes",
                 f"{aggregate['clusters']} x {aggregate['nodes_per_cluster']}"],
                ["aggregate items/min",
                 round(aggregate["aggregate_items_per_minute"], 2)],
                ["aggregate blocks/min",
                 round(aggregate["aggregate_blocks_per_minute"], 2)],
                ["max mempool depth", aggregate["max_mempool_depth"]],
                ["cross lookups ok/failed",
                 f"{aggregate['lookups_ok']} / {aggregate['lookups_failed']}"],
                ["migrations ok/rejected",
                 f"{aggregate['migrations']} / "
                 f"{aggregate['migrations_rejected']}"],
                ["gossip rounds", aggregate["gossip_rounds"]],
                ["bloom FP probes / verify rejected",
                 f"{aggregate['bloom_fp_probes']} / "
                 f"{aggregate['verify_rejected']}"],
                ["fog quarantined",
                 aggregate["fog_quarantined"] or "-"],
                ["directory staleness (s)",
                 round(aggregate["directory_staleness"], 1)],
                ["directory digest", aggregate["directory_digest"][:16]],
            ],
        )
    )
    print()
    print(
        render_table(
            "Per cluster",
            ["cluster", "height", "digest", "items", "mempool", "converged"],
            [
                [
                    entry["cluster_id"],
                    entry["height"],
                    entry["chain_digest"][:16],
                    entry["items_on_chain"],
                    entry["mempool_depth"],
                    entry["formation_converged"],
                ]
                for entry in aggregate["per_cluster"]
            ],
        )
    )


def _export_fed_json(aggregate: dict, json_path: Optional[str]) -> None:
    if not json_path:
        return
    out = Path(json_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        json.dump(aggregate, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")


def cmd_fed_run(args: argparse.Namespace) -> int:
    session = _obs_enable(args, default_interval=args.block_interval)
    try:
        return _cmd_fed_run_inner(args)
    finally:
        if session is not None:
            _obs_export(session, args)


def _cmd_fed_run_inner(args: argparse.Namespace) -> int:
    from repro.federation import run_federation

    if args.stop_after is not None and not args.persist:
        raise SystemExit("--stop-after requires --persist DIR")
    spec = _fed_spec(args)
    result = run_federation(
        spec,
        persist_dir=args.persist,
        snapshot_every_seconds=args.snapshot_every,
        stop_after_seconds=args.stop_after,
    )
    aggregate = result.aggregate
    _print_fed_summary(
        f"Federated run: {spec.cluster_count} clusters x "
        f"{spec.nodes_per_cluster} nodes, {spec.duration_seconds / 60.0:g} min, "
        f"seed={spec.seed}",
        aggregate,
    )
    if not aggregate["finished"]:
        print(
            f"paused at t={result.runtime.engine.now:g}s — resume with "
            f"`repro fed resume {args.persist}`"
        )
    _export_fed_json(aggregate, args.json)
    return 0


def cmd_fed_resume(args: argparse.Namespace) -> int:
    session = _obs_enable(
        args, default_interval=PAPER_CONFIG.expected_block_interval
    )
    try:
        return _cmd_fed_resume_inner(args)
    finally:
        if session is not None:
            _obs_export(session, args)


def _cmd_fed_resume_inner(args: argparse.Namespace) -> int:
    from repro.federation import resume_federation

    result = resume_federation(
        args.directory,
        snapshot_every_seconds=args.snapshot_every,
        stop_after_seconds=args.stop_after,
    )
    aggregate = result.aggregate
    _print_fed_summary(f"Resumed federated run: {args.directory}", aggregate)
    if not aggregate["finished"]:
        print(
            f"paused at t={result.runtime.engine.now:g}s — resume with "
            f"`repro fed resume {args.directory}`"
        )
    _export_fed_json(aggregate, args.json)
    return 0


def cmd_fed_chaos(args: argparse.Namespace) -> int:
    session = _obs_enable(args, default_interval=args.block_interval)
    try:
        return _cmd_fed_chaos_inner(args)
    finally:
        if session is not None:
            _obs_export(session, args)


def _cmd_fed_chaos_inner(args: argparse.Namespace) -> int:
    from repro.chaos.runner import CHAOS_VERDICT_NAME
    from repro.federation import FederatedChaosSpec, run_federated_chaos

    federation = _fed_spec(args)
    fog_adversaries = {}
    if args.fog_behavior:
        peers = (
            tuple(int(p) for p in args.fog_peers.split(","))
            if args.fog_peers
            else (0,)
        )
        fog_adversaries = {args.fog_behavior: peers}
    elif args.fog_peers:
        raise SystemExit("error: --fog-peers requires --fog-behavior")
    try:
        spec = FederatedChaosSpec(
            federation=federation,
            byzantine_clusters=tuple(args.byzantine_cluster or ()),
            behavior=args.behavior,
            start_minutes=args.start,
            stop_minutes=args.stop,
            fog_adversaries=fog_adversaries,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    result = run_federated_chaos(spec)
    verdict = result.verdict
    blast = verdict["blast_radius"]
    siblings = (
        ", ".join(
            f"c{key}={'ok' if ok else 'VIOLATED'}"
            for key, ok in sorted(blast["sibling_safety"].items())
        )
        or "-"
    )
    fog = verdict["fog"]
    fog_adversary_label = (
        ", ".join(
            f"{behavior}@{peers}"
            for behavior, peers in sorted(fog["adversaries"].items())
        )
        or "-"
    )
    rehomed = (
        ", ".join(
            f"c{cluster}→p{peer}"
            for cluster, peer in sorted(fog["rehomed_clusters"].items())
        )
        or "-"
    )
    behavior_label = spec.behavior if spec.byzantine_clusters else (
        "+".join(sorted(fog["adversaries"])) or spec.behavior
    )
    print()
    print(
        render_table(
            f"Federated chaos: {federation.cluster_count} clusters x "
            f"{federation.nodes_per_cluster} nodes, "
            f"behavior={behavior_label}, seed={federation.seed}",
            ["field", "value"],
            [
                ["verdict", verdict["status"]],
                ["blast radius ok", blast["ok"]],
                ["byzantine clusters", blast["byzantine_clusters"] or "-"],
                ["sibling safety", siblings],
                ["fog ok", fog["ok"]],
                ["fog adversaries", fog_adversary_label],
                ["fog quarantined", fog["quarantined_peers"] or "-"],
                ["clusters re-homed", rehomed],
                ["cross lookups ok/failed",
                 f"{fog['lookups_ok']} / {fog['lookups_failed']}"],
                ["attestation / verify rejected",
                 f"{fog['attestation_rejected']} / {fog['verify_rejected']}"],
            ],
        )
    )
    targets = []
    if args.json:
        targets.append(Path(args.json))
    if args.obs:
        targets.append(Path(args.obs) / CHAOS_VERDICT_NAME)
    for target in targets:
        print(f"wrote {result.write_verdict(target)}")
    return 1 if verdict["status"] == "critical" else 0


def _trace_path(argument: str) -> Path:
    """Accept either an obs directory or a trace file path."""
    path = Path(argument)
    if path.is_dir():
        return path / obs.TRACE_NAME
    return path


def cmd_trace_summary(args: argparse.Namespace) -> int:
    trace_file = _trace_path(args.source)
    if not trace_file.exists():
        raise SystemExit(f"error: no trace file at {trace_file}")
    events = obs.read_trace_events(trace_file)
    rows = [
        [
            row["category"],
            row["name"],
            row["count"],
            round(row["wall_ms"], 2),
            round(row["sim_s"], 1),
        ]
        for row in obs.summarize_events(events)[: args.top]
    ]
    print()
    print(
        render_table(
            f"Trace summary: {trace_file}",
            ["category", "span", "count", "wall ms", "sim s"],
            rows,
        )
    )
    metrics_file = trace_file.parent / obs.METRICS_NAME
    if metrics_file.exists():
        snapshot = json.loads(metrics_file.read_text(encoding="utf-8"))
        counter_rows = [
            [name, instrument["value"]]
            for name, instrument in sorted(snapshot.get("instruments", {}).items())
            if instrument.get("type") == "counter"
        ]
        if counter_rows:
            print()
            print(render_table("Counters", ["name", "value"], counter_rows))
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    trace_file = _trace_path(args.source)
    if not trace_file.exists():
        raise SystemExit(f"error: no trace file at {trace_file}")
    events = obs.read_trace_events(trace_file)
    print(f"wrote {obs.write_strict_json(events, args.out)} ({len(events)} events)")
    return 0


def cmd_trace_merge(args: argparse.Namespace) -> int:
    snapshots = []
    for source in args.sources:
        path = Path(source)
        if path.is_dir():
            path = path / obs.METRICS_NAME
        try:
            snapshots.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(f"error: cannot read metrics snapshot {path}: {error}")
    merged = obs.merge_snapshots(snapshots)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} ({len(merged['instruments'])} instruments)")
    if args.trace_out:
        candidates = []
        for source in args.sources:
            path = Path(source)
            trace_file = path / obs.TRACE_NAME if path.is_dir() else path
            if trace_file.name != obs.METRICS_NAME and trace_file.exists():
                candidates.append(trace_file)
        if not candidates:
            raise SystemExit(
                "error: --trace-out found no trace.jsonl among the sources"
            )
        stats = obs.merge_trace_files(candidates, out=args.trace_out)
        print(
            f"wrote {stats['out']} ({stats['events']} events, "
            f"{stats['traces']} traces from {len(stats['origins'])} origin(s))"
        )
        print(f"cross-process traces: {stats['cross_process_traces']}")
    return 0


def cmd_trace_flame(args: argparse.Namespace) -> int:
    source = Path(args.source)
    if source.is_dir():
        source = source / obs.PROFILE_NAME
    if not source.exists():
        raise SystemExit(
            f"error: no folded-stacks profile at {source} "
            "(runs write one when --profile is on)"
        )
    folded = obs.read_folded(source)
    target = obs.write_flamegraph(folded, args.out, title=f"repro — {source}")
    print(
        f"wrote {target} ({sum(folded.values())} samples, "
        f"{len(folded)} distinct stacks)"
    )
    if args.top:
        rows = [
            [
                row["function"],
                row["self"],
                f"{row['self_pct']}%",
                row["total"],
                f"{row['total_pct']}%",
            ]
            for row in obs.top_functions(folded, args.top)
        ]
        print()
        print(
            render_table(
                "hottest functions (by self samples)",
                ["function", "self", "self%", "total", "total%"],
                rows,
            )
        )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    while True:
        try:
            view = obs.load_top_view(args.source)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            print()
            print(obs.render_top(view))
        except BrokenPipeError:
            # Piped into head/less and the reader closed; not an error.
            sys.stderr.close()  # suppress the interpreter's epipe warning
            return 0
        if args.watch is None:
            return 0
        try:
            _time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        run = obs.load_run(args.directory)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    print(obs.render_terminal_report(run))
    if not args.no_html:
        target = obs.write_html_report(run, args.html)
        print(f"\nwrote {target}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        result = obs.compare_runs(args.baseline, args.candidate)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    print(obs.render_comparison(result))
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")
    return 1 if result.regressed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Edge blockchain reproduction (ICDCS 2019) — experiment CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", type=int, nargs="?", const=0, default=None,
            metavar="PORT",
            help="with --obs: stream telemetry.jsonl and serve /metrics + "
                 "/snapshot on this port (omit PORT for an ephemeral one)",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="with --obs: continuously sample the run thread's stacks "
                 "and export profile_folded.txt (see `repro trace flame`)",
        )
        p.add_argument(
            "--profile-hz", type=float, default=None, metavar="HZ",
            help="profiler sampling rate (default 97)",
        )

    def _lifecycle_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checkpoint-every", type=int, default=None, metavar="K",
            help="checkpoint every K blocks (reorgs at or below a "
                 "checkpoint are refused)",
        )
        p.add_argument(
            "--retain", type=int, default=None, metavar="N",
            help="lifecycle pruning: keep at least N block bodies hot and "
                 "drop checkpointed history below them "
                 "(requires --checkpoint-every)",
        )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--nodes", type=int, default=20)
    run.add_argument("--minutes", type=float, default=60.0)
    run.add_argument("--rate", type=float, default=1.0, help="data items per minute")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--solver", default="greedy",
                     choices=["greedy", "random"])
    run.add_argument("--block-interval", type=float, default=60.0)
    _lifecycle_flags(run)
    run.add_argument("--json", help="write metrics record to this JSON file")
    run.add_argument("--csv", help="write metrics record to this CSV file")
    run.add_argument(
        "--persist", metavar="DIR",
        help="make the run durable: journal, chain store, and snapshots in DIR",
    )
    run.add_argument(
        "--stop-after", type=float, metavar="SECONDS",
        help="pause cleanly after this much simulated time (requires --persist)",
    )
    run.add_argument(
        "--journal-every", type=float, default=30.0, metavar="SECONDS",
        help="simulated seconds between journal flushes (default 30)",
    )
    run.add_argument(
        "--snapshot-every", type=float, default=600.0, metavar="SECONDS",
        help="simulated seconds between runtime snapshots (default 600)",
    )
    run.add_argument(
        "--obs", metavar="DIR",
        help="enable observability: write a Perfetto trace (trace.jsonl) "
             "and a metrics snapshot (metrics.json) into DIR",
    )
    run.add_argument(
        "--obs-timebase", choices=["wall", "sim"], default="wall",
        help="timeline for the exported trace: real (wall) or simulated time",
    )
    run.add_argument(
        "--obs-sample", type=float, metavar="SECONDS",
        help="simulated seconds between protocol-timeline samples "
             "(default: the expected block interval)",
    )
    _telemetry_flags(run)
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser("resume", help="continue a durable run after a stop/crash")
    resume.add_argument("directory", help="run directory created by `run --persist`")
    resume.add_argument(
        "--stop-after", type=float, metavar="SECONDS",
        help="pause again after this much additional simulated time",
    )
    resume.add_argument(
        "--obs", metavar="DIR",
        help="enable observability for the resumed segment: trace, metrics, "
             "protocol timeline, and monitor verdict into DIR",
    )
    resume.add_argument(
        "--obs-timebase", choices=["wall", "sim"], default="wall",
        help="timeline for the exported trace: real (wall) or simulated time",
    )
    resume.add_argument(
        "--obs-sample", type=float, metavar="SECONDS",
        help="simulated seconds between protocol-timeline samples "
             "(default: the paper's expected block interval)",
    )
    resume.set_defaults(func=cmd_resume)

    inspect = sub.add_parser(
        "inspect", help="health-check a durable run directory (non-zero on corruption)"
    )
    inspect.add_argument("directory", help="run directory created by `run --persist`")
    inspect.set_defaults(func=cmd_inspect)

    prune = sub.add_parser(
        "prune",
        help="compact a durable run: move checkpointed history below the "
             "retention horizon into the cold archive and VACUUM the store",
    )
    prune.add_argument("directory", help="run directory created by `run --persist`")
    _lifecycle_flags(prune)
    prune.set_defaults(func=cmd_prune)

    archive = sub.add_parser(
        "archive", help="inspect or read a run's cold-archive tier"
    )
    archive_sub = archive.add_subparsers(dest="archive_command", required=True)
    archive_inspect = archive_sub.add_parser(
        "inspect",
        help="archive stats + full integrity walk (non-zero on corruption)",
    )
    archive_inspect.add_argument(
        "source", help="run directory or archive.jsonl path"
    )
    archive_inspect.set_defaults(func=cmd_archive_inspect)
    archive_fetch = archive_sub.add_parser(
        "fetch", help="print archived block(s) as canonical JSON, one per line"
    )
    archive_fetch.add_argument(
        "source", help="run directory or archive.jsonl path"
    )
    archive_fetch.add_argument("index", type=int, help="first block index to fetch")
    archive_fetch.add_argument(
        "--stop", type=int, default=None, metavar="INDEX",
        help="fetch the half-open range [index, STOP) instead of one block",
    )
    archive_fetch.set_defaults(func=cmd_archive_fetch)

    fig4 = sub.add_parser("fig4", help="regenerate Fig. 4 (data-amount sweep)")
    fig4.add_argument("--node-counts", type=int, nargs="+", default=[10, 30, 50])
    fig4.add_argument("--rates", type=float, nargs="+", default=[1.0, 3.0])
    fig4.add_argument("--seed", type=int, default=0)
    fig4.add_argument("--json")
    fig4.add_argument("--csv")
    fig4.set_defaults(func=cmd_fig4)

    fig5 = sub.add_parser("fig5", help="regenerate Fig. 5 (placement comparison)")
    fig5.add_argument("--node-counts", type=int, nargs="+", default=[10, 30, 50])
    fig5.add_argument("--seed", type=int, default=0)
    fig5.add_argument("--json")
    fig5.add_argument("--csv")
    fig5.set_defaults(func=cmd_fig5)

    live = sub.add_parser(
        "live", help="run the protocol over real TCP sockets on localhost"
    )
    live_sub = live.add_subparsers(dest="live_command", required=True)

    def _live_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=8)
        p.add_argument("--minutes", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--rate", type=float, default=1.0, help="data items per minute"
        )
        p.add_argument("--solver", default="greedy",
                       choices=["greedy", "random"])
        p.add_argument("--block-interval", type=float, default=60.0)
        p.add_argument(
            "--time-scale", type=float, default=0.02,
            help="wall seconds per simulated second (default 0.02 = 50x)",
        )
        p.add_argument(
            "--base-port", type=int, default=0,
            help="first TCP port (node i listens on base+i); 0 = ephemeral",
        )

    live_run = live_sub.add_parser(
        "run", help="N live nodes on localhost driving the seeded workload"
    )
    _live_common(live_run)
    live_run.add_argument(
        "--procs", action="store_true",
        help="one OS process per node instead of asyncio tasks",
    )
    live_run.add_argument(
        "--start-lead", type=float, default=8.0, metavar="SECONDS",
        help="--procs only: wall seconds for all node processes to boot "
             "and mesh up before logical t=0 (default 8)",
    )
    live_run.add_argument(
        "--kill", type=int, metavar="NODE",
        help="kill this node mid-run and restart it (reconnect + resync drill)",
    )
    live_run.add_argument(
        "--kill-at", type=float, default=3.0, metavar="MINUTES",
        help="simulated minutes into the run to kill the node (default 3)",
    )
    live_run.add_argument(
        "--kill-down", type=float, default=2.0, metavar="MINUTES",
        help="simulated minutes the node stays down (default 2)",
    )
    live_run.add_argument("--json", help="write the run record to this JSON file")
    live_run.add_argument(
        "--obs", metavar="DIR",
        help="enable observability: trace, metrics, timeline, and verdict in DIR",
    )
    live_run.add_argument(
        "--obs-timebase", choices=["wall", "sim"], default="wall",
        help="timeline for the exported trace: real (wall) or simulated time",
    )
    live_run.add_argument(
        "--obs-sample", type=float, metavar="SECONDS",
        help="simulated seconds between protocol-timeline samples "
             "(default: the expected block interval)",
    )
    _telemetry_flags(live_run)
    live_run.set_defaults(func=cmd_live_run)

    live_parity = live_sub.add_parser(
        "parity",
        help="run the same seed on simnet and live; exit 1 unless the "
             "chain digests match",
    )
    _live_common(live_parity)
    live_parity.add_argument("--json", help="write the parity report to this file")
    live_parity.set_defaults(func=cmd_live_parity)

    live_node = live_sub.add_parser(
        "node", help="internal: host one node of a --procs cluster"
    )
    _live_common(live_node)
    live_node.add_argument("--node-id", type=int, required=True)
    live_node.add_argument(
        "--start-at", type=float, required=True,
        help="shared epoch instant at which logical t=0 begins",
    )
    live_node.add_argument(
        "--obs", metavar="DIR",
        help="per-process observability artefacts (origin n{node-id})",
    )
    live_node.add_argument(
        "--obs-timebase", choices=["wall", "sim"], default="wall",
    )
    live_node.add_argument("--obs-sample", type=float, metavar="SECONDS")
    _telemetry_flags(live_node)
    live_node.set_defaults(func=cmd_live_node)

    chaos = sub.add_parser(
        "chaos", help="seeded Byzantine fault-injection scenarios"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="run one adversarial scenario and emit a safety/liveness verdict",
    )
    chaos_run.add_argument("--nodes", type=int, default=8)
    chaos_run.add_argument("--minutes", type=float, default=10.0)
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument(
        "--fabric", choices=["sim", "live"], default="sim",
        help="simulator (deterministic) or real sockets on localhost",
    )
    chaos_run.add_argument(
        "--adversary", action="append", metavar="TYPE=ID[,ID...]",
        help="plant adversaries: equivocator, spammer, poisoner, tamperer, "
             "or flooder at the given node ids (repeatable)",
    )
    chaos_run.add_argument(
        "--start", type=float, default=0.0, metavar="MINUTES",
        help="minutes into the run the misbehavior switches on (default 0)",
    )
    chaos_run.add_argument(
        "--stop", type=float, default=None, metavar="MINUTES",
        help="minutes into the run the misbehavior switches off "
             "(default: active to the end)",
    )
    chaos_run.add_argument("--rate", type=float, default=1.0,
                           help="data items per minute")
    chaos_run.add_argument("--block-interval", type=float, default=60.0)
    chaos_run.add_argument(
        "--verify-signatures", action="store_true",
        help="enable metadata signature verification (catches the "
             "tamperer's signature-breaking variant)",
    )
    chaos_run.add_argument(
        "--churn", type=float, default=None, metavar="FRACTION",
        help="sim only: random churn over this fraction of nodes",
    )
    chaos_run.add_argument(
        "--partition", metavar="AT:HEAL",
        help="sim only: partition the network in half between these minutes",
    )
    chaos_run.add_argument(
        "--kill", type=int, default=None, metavar="NODE",
        help="live only: kill this node mid-run and restart it",
    )
    chaos_run.add_argument("--kill-at", type=float, default=3.0,
                           metavar="MINUTES")
    chaos_run.add_argument("--kill-down", type=float, default=2.0,
                           metavar="MINUTES")
    chaos_run.add_argument(
        "--time-scale", type=float, default=0.02,
        help="live only: wall seconds per simulated second (default 0.02)",
    )
    chaos_run.add_argument(
        "--json", metavar="PATH", help="also write the verdict to this file"
    )
    chaos_run.add_argument(
        "--obs", metavar="DIR",
        help="enable observability: trace, metrics, timeline, monitor "
             "verdict, and chaos_verdict.json in DIR",
    )
    chaos_run.add_argument(
        "--obs-timebase", choices=["wall", "sim"], default="wall",
        help="timeline for the exported trace: real (wall) or simulated time",
    )
    chaos_run.add_argument(
        "--obs-sample", type=float, metavar="SECONDS",
        help="simulated seconds between protocol-timeline samples "
             "(default: the expected block interval)",
    )
    chaos_run.set_defaults(func=cmd_chaos_run)

    fed = sub.add_parser(
        "fed", help="hierarchical federation: K sharded clusters under a fog tier"
    )
    fed_sub = fed.add_subparsers(dest="fed_command", required=True)

    def _fed_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clusters", type=int, default=4)
        p.add_argument("--nodes", type=int, default=8,
                       help="nodes per cluster")
        p.add_argument("--minutes", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--super-peers", type=int, default=2,
                       help="fog super-peers replicating the directory")
        p.add_argument("--rate", type=float, default=1.0,
                       help="data items per minute per cluster")
        p.add_argument("--block-interval", type=float, default=60.0)
        p.add_argument(
            "--obs", metavar="DIR",
            help="enable observability: trace, metrics, per-cluster timeline, "
                 "and monitor verdict in DIR",
        )
        p.add_argument(
            "--obs-timebase", choices=["wall", "sim"], default="wall",
            help="timeline for the exported trace: real (wall) or simulated time",
        )
        p.add_argument(
            "--obs-sample", type=float, metavar="SECONDS",
            help="simulated seconds between protocol-timeline samples "
                 "(default: the expected block interval)",
        )

    fed_run = fed_sub.add_parser(
        "run", help="run one federated experiment (all clusters on one engine)"
    )
    _fed_common(fed_run)
    _lifecycle_flags(fed_run)
    fed_run.add_argument("--json", help="write the aggregate record to this file")
    fed_run.add_argument(
        "--persist", metavar="DIR",
        help="make the run durable: federated snapshots in DIR",
    )
    fed_run.add_argument(
        "--stop-after", type=float, metavar="SECONDS",
        help="pause cleanly after this much simulated time (requires --persist)",
    )
    fed_run.add_argument(
        "--snapshot-every", type=float, default=120.0, metavar="SECONDS",
        help="simulated seconds between snapshots (default 120)",
    )
    _telemetry_flags(fed_run)
    fed_run.set_defaults(func=cmd_fed_run)

    fed_resume = fed_sub.add_parser(
        "resume", help="continue a killed federated run from its last snapshot"
    )
    fed_resume.add_argument("directory", help="run directory from `fed run --persist`")
    fed_resume.add_argument(
        "--stop-after", type=float, metavar="SECONDS",
        help="pause again after this much additional simulated time",
    )
    fed_resume.add_argument(
        "--snapshot-every", type=float, default=120.0, metavar="SECONDS",
        help="simulated seconds between snapshots (default 120)",
    )
    fed_resume.add_argument("--json", help="write the aggregate record to this file")
    fed_resume.add_argument(
        "--obs", metavar="DIR",
        help="enable observability for the resumed segment",
    )
    fed_resume.add_argument(
        "--obs-timebase", choices=["wall", "sim"], default="wall",
        help="timeline for the exported trace: real (wall) or simulated time",
    )
    fed_resume.add_argument(
        "--obs-sample", type=float, metavar="SECONDS",
        help="simulated seconds between protocol-timeline samples",
    )
    fed_resume.set_defaults(func=cmd_fed_resume)

    fed_chaos = fed_sub.add_parser(
        "chaos",
        help="turn whole clusters Byzantine and check the blast radius",
    )
    _fed_common(fed_chaos)
    fed_chaos.add_argument(
        "--byzantine-cluster", type=int, action="append", metavar="ID",
        help="cluster whose every node runs the adversary (repeatable)",
    )
    fed_chaos.add_argument(
        "--behavior", default="equivocator",
        help="adversary behavior for Byzantine clusters (default equivocator)",
    )
    fed_chaos.add_argument(
        "--start", type=float, default=2.0, metavar="MINUTES",
        help="minutes into the run the misbehavior switches on (default 2)",
    )
    fed_chaos.add_argument(
        "--stop", type=float, default=None, metavar="MINUTES",
        help="minutes into the run the misbehavior switches off "
             "(default: active to the end)",
    )
    fed_chaos.add_argument(
        "--fog-behavior", default=None, metavar="NAME",
        help="fog-tier adversary behavior (summary_poisoner, "
             "gossip_suppressor, version_inflator, gateway_tamperer)",
    )
    fed_chaos.add_argument(
        "--fog-peers", default=None, metavar="IDS",
        help="comma-separated super-peer ids running --fog-behavior "
             "(default 0)",
    )
    fed_chaos.add_argument(
        "--json", metavar="PATH", help="also write the verdict to this file"
    )
    fed_chaos.set_defaults(func=cmd_fed_chaos)

    trace = sub.add_parser(
        "trace", help="inspect/convert observability artefacts from `run --obs`"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    summary = trace_sub.add_parser(
        "summary", help="per-subsystem span totals and counters"
    )
    summary.add_argument("source", help="obs directory or trace.jsonl path")
    summary.add_argument("--top", type=int, default=20, help="rows to show")
    summary.set_defaults(func=cmd_trace_summary)

    export = trace_sub.add_parser(
        "export", help="convert a trace to a strict Chrome-trace JSON array"
    )
    export.add_argument("source", help="obs directory or trace.jsonl path")
    export.add_argument("--out", required=True, help="output .json path")
    export.set_defaults(func=cmd_trace_export)

    merge = trace_sub.add_parser(
        "merge", help="merge metrics snapshots from several runs/shards"
    )
    merge.add_argument("sources", nargs="+", help="obs dirs or metrics.json paths")
    merge.add_argument("--out", required=True, help="merged snapshot path")
    merge.add_argument(
        "--trace-out", metavar="PATH",
        help="also stitch the sources' trace files into one multi-process "
             "trace (cross-process traces linked by trace id)",
    )
    merge.set_defaults(func=cmd_trace_merge)

    flame = trace_sub.add_parser(
        "flame", help="render a folded-stacks profile as a flamegraph SVG"
    )
    flame.add_argument("source", help="obs directory or profile_folded.txt path")
    flame.add_argument("--out", required=True, help="output .svg path")
    flame.add_argument(
        "--top", type=int, default=10,
        help="also print the N hottest functions (0 = skip)",
    )
    flame.set_defaults(func=cmd_trace_flame)

    top = sub.add_parser(
        "top", help="terminal live view over a telemetry stream or endpoint"
    )
    top.add_argument(
        "source",
        help="obs directory holding telemetry.jsonl, or http://host:port",
    )
    top.add_argument(
        "--watch", type=float, nargs="?", const=2.0, default=None,
        metavar="SECONDS",
        help="refresh every SECONDS (default 2) until interrupted",
    )
    top.set_defaults(func=cmd_top)

    report = sub.add_parser(
        "report", help="render one observed run (terminal + self-contained HTML)"
    )
    report.add_argument("directory", help="obs directory from `run --obs`")
    report.add_argument(
        "--html", metavar="PATH",
        help="HTML output path (default: DIR/report.html)",
    )
    report.add_argument(
        "--no-html", action="store_true", help="terminal report only"
    )
    report.set_defaults(func=cmd_report)

    compare = sub.add_parser(
        "compare",
        help="diff two observed runs; exit 1 when the candidate regressed",
    )
    compare.add_argument("baseline", help="baseline obs directory")
    compare.add_argument("candidate", help="candidate obs directory")
    compare.add_argument(
        "--json", metavar="PATH", help="also write the comparison as JSON"
    )
    compare.set_defaults(func=cmd_compare)

    fig6 = sub.add_parser("fig6", help="regenerate Fig. 6 (PoW vs PoS battery)")
    fig6.add_argument("--minutes", type=int, default=84)
    fig6.add_argument("--difficulty", type=int, default=4)
    fig6.add_argument("--seed", type=int, default=0)
    fig6.set_defaults(func=cmd_fig6)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PersistError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not our failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
