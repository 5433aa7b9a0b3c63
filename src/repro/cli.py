"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``  — one experiment with explicit parameters; prints the summary
  and optionally archives it as JSON/CSV.  ``--persist DIR`` makes the
  run durable (journal + SQLite store in DIR).
* ``resume`` — continue a durable run after a pause, kill, or crash, by
  replaying it from genesis against its journal.
* ``inspect`` — health-check a durable run directory; exits non-zero on
  unrecoverable corruption.  Reports hot- vs cold-tier byte footprints.
* ``prune`` — compact a durable run: move checkpointed history below the
  retention horizon into the cold archive, then VACUUM the hot store.
* ``archive inspect`` / ``archive fetch`` — verify and read the cold
  archive tier (``archive.bin``) a compaction leaves behind.
* ``reproduce`` — run the paper's Section VI (Fig. 4/5/6) once at 500
  minutes, the ablations A1, A3, A4, A7 and A8, the scale sweep and the
  Byzantine adversaries through :func:`repro.sim.scenarios.reproduce`,
  print the tables and every claim, and exit 1 when a claim fails.
* ``live run`` — the same protocol over real TCP sockets on localhost:
  N nodes as asyncio tasks (or ``--procs`` subprocesses), the seeded
  workload, and the same metrics/obs artefacts as ``run``.
* ``live parity`` — the sim/live parity oracle: one seeded workload on
  both runtimes must converge to the identical chain digest.
* ``trace summary`` / ``trace export`` / ``trace merge`` / ``trace
  flame`` — inspect and convert the observability artefacts a ``run
  --obs DIR`` leaves behind (``merge --trace-out`` stitches the
  per-process traces of a ``--procs`` run; ``flame`` renders the
  continuous profiler's folded stacks).
* ``top`` — terminal live view over a ``--telemetry`` stream or
  endpoint: chain height, interval EWMA, mempool depth, quarantines,
  and msgs/sec.
* ``report`` — render one observed run's timeline, events, and verdict
  as a terminal report plus a self-contained HTML page.
* ``compare`` — diff two observed runs with threshold-based regression
  verdicts; exits non-zero when the candidate regressed.

Each flag group (workload, kill drill, lifecycle, obs, telemetry) is
declared by one helper in :func:`build_parser`, and every observed verb
runs its body inside :func:`_observed`.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro import obs
from repro.core.config import PAPER_CONFIG, LifecycleSpec
from repro.core.errors import PersistError
from repro.metrics.export import metrics_to_record, write_csv
from repro.metrics.report import render_table
from repro.obs.export import write_json
from repro.persist import (
    PersistConfig,
    PersistentRunResult,
    inspect_run,
    resume_run,
    run_persistent,
)
from repro.sim.runner import ExperimentSpec, run_experiment
from repro.sim.scenarios import reproduce
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


def _write(document, path: Optional[str]) -> None:
    """Write ``document`` as JSON to ``path`` (when given) and say so."""
    if path:
        print(f"wrote {write_json(document, path)}")


@contextlib.contextmanager
def _user_input() -> Iterator[None]:
    """Turn a spec's ``ValueError`` into ``error: …`` and a non-zero exit."""
    try:
        yield
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def _config(args: argparse.Namespace):
    """PAPER_CONFIG with the verb's workload and lifecycle flags folded in."""
    interval = getattr(args, "checkpoint_every", None)
    retain = getattr(args, "retain", None)
    with _user_input():
        config = replace(
            PAPER_CONFIG,
            data_items_per_minute=args.rate,
            expected_block_interval=args.block_interval,
            placement_solver=getattr(args, "solver", PAPER_CONFIG.placement_solver),
        )
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


def _check_telemetry(args: argparse.Namespace) -> None:
    """``--telemetry`` and ``--profile`` ride on ``--obs``: refuse them alone."""
    telemetry = getattr(args, "telemetry", None)
    if (telemetry is not None or getattr(args, "profile", False)) and not args.obs:
        raise SystemExit("error: --telemetry/--profile require --obs DIR")


@contextlib.contextmanager
def _observed(
    args: argparse.Namespace, origin: str = "n0", out=None
) -> Iterator[None]:
    """Observe the ``with`` body when ``--obs DIR`` is set, then export.

    The protocol timeline samples every ``--obs-sample`` simulated
    seconds, by default once per expected block interval: the verb's
    ``--block-interval``, or the paper's t0 for the resume verbs, whose
    config is only known once the manifest is read.  ``--telemetry [PORT]``
    also starts the streaming JSONL ring plus the /metrics + /snapshot
    endpoint, and ``--profile`` the continuous stack sampler.  ``out``
    redirects the diagnostics (the live ``node`` command must keep stdout
    JSON-only).
    """
    _check_telemetry(args)
    if not args.obs:
        yield
        return
    stream = out or sys.stdout
    interval = args.obs_sample
    if interval is None:
        interval = getattr(
            args, "block_interval", PAPER_CONFIG.expected_block_interval
        )
    with _user_input():
        session = obs.enable(timeline_interval=interval, origin=origin)
    telemetry = getattr(args, "telemetry", None)
    if telemetry is not None:
        session.start_stream(args.obs)
        port = session.start_telemetry(port=telemetry)
        print(
            f"telemetry: http://127.0.0.1:{port}/metrics "
            f"(streaming to {Path(args.obs) / obs.STREAM_NAME})",
            file=stream,
        )
    if getattr(args, "profile", False):
        session.start_profiler(hz=args.profile_hz)
    try:
        yield
    finally:
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
    with _observed(args):
        with _user_input():
            spec = ExperimentSpec(
                node_count=args.nodes,
                config=_config(args),
                seed=args.seed,
                duration_minutes=args.minutes,
            )
        label = (
            f"Run: {args.nodes} nodes, {args.minutes:g} min, "
            f"{args.rate:g} items/min, solver={args.solver}, seed={args.seed}"
        )
        if args.persist:
            with _user_input():
                persist = PersistConfig(journal_every_seconds=args.journal_every)
            outcome = run_persistent(
                spec,
                args.persist,
                persist=persist,
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
        _write([record], args.json)
        if args.csv:
            print(f"wrote {write_csv([record], args.csv)}")
        return 0


def cmd_resume(args: argparse.Namespace) -> int:
    with _observed(args):
        outcome = resume_run(args.directory, stop_after_seconds=args.stop_after)
        return _finish_durable(outcome, f"Resumed run: {args.directory}")


def _format_bytes(count: int) -> str:
    if count >= 1024 * 1024:
        return f"{count / (1024 * 1024):.1f} MiB"
    if count >= 1024:
        return f"{count / 1024:.1f} KiB"
    return f"{count} B"


def cmd_inspect(args: argparse.Namespace) -> int:
    report = inspect_run(args.directory)
    hot = report.journal_bytes + report.store_bytes
    rows = [
        ["status", report.status],
        ["journal records", report.journal_records],
        ["journal last clock", f"{report.journal_clock:g} s"],
        ["journal chain height", report.journal_height],
        ["store height / blocks", f"{report.store_height} / {report.store_blocks}"],
        ["store metadata items", report.store_metadata],
        ["store tip", (report.store_tip or "-")[:16]],
        ["store pruned below", report.store_pruned_below],
        ["hot bytes (journal/store)",
         f"{_format_bytes(hot)} ({_format_bytes(report.journal_bytes)} / "
         f"{_format_bytes(report.store_bytes)})"],
        ["cold bytes (archive)",
         f"{_format_bytes(report.archive_bytes)} "
         f"({report.archive_blocks} block(s), "
         f"{report.archive_checkpoints} checkpoint(s))"],
    ]
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
    with _user_input():
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
        # the rest from the store), pinning a checkpoint record at every
        # checkpoint index the compaction archives, each from the ledger
        # as of its block; the horizon's record is the one printed.
        state = ChainState(node_ids, config)
        interval = config.checkpoint_interval
        pinned = {}
        cold = min(archive.archived_below, horizon + 1)
        hot = (store.block_by_index(index) for index in range(cold, horizon + 1))
        for index, block in enumerate(itertools.chain(archive.fetch_range(0, cold), hot)):
            if block is None:
                raise SystemExit(f"error: block {index} is missing from the store")
            state.apply_block(block)
            if floor <= index < horizon and index and index % interval == 0:
                pinned[index] = CheckpointRecord.pin(block, state)
        record = CheckpointRecord.pin(block, state)
        before = store.footprint_bytes()
        moved = store.compact(archive, horizon, pinned)
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
    archive = BlockArchive(path)  # refuses an old format, also beside ``path``
    if not path.exists():
        raise SystemExit(f"error: no archive at {path}")
    return archive


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


def cmd_reproduce(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    record = reproduce()
    fig4 = [
        [cell["nodes"], cell["rate"], round(cell["avg_node_mb"], 1),
         round(cell["gini"], 4), round(cell["delivery"], 3),
         f"{cell['failed']}/{cell['served']}", round(cell["height"], 1)]
        for cell in record["fig4"]
    ]
    arms = {(cell["solver"], cell["nodes"]): cell for cell in record["fig5"]}
    fig5 = [
        [nodes, round(optimal["delivery"], 3), round(arms[("random", nodes)]["delivery"], 3),
         round(optimal["avg_node_mb"], 1), round(arms[("random", nodes)]["avg_node_mb"], 1)]
        for (solver, nodes), optimal in arms.items()
        if solver == "greedy"
    ]
    mech, scale, attacks = record["mechanisms"], record["scale"], record["adversaries"]
    on, off = mech["recent_cache"]["on"], mech["recent_cache"]["off"]
    pos, pow_ = mech["network_energy"]["pos"], mech["network_energy"]["pow"]
    claims = record["claims"] + mech["claims"] + scale["claims"] + attacks["claims"]
    overlays = (("runs", ""), ("churn", " + 25 % churn"), ("partition", " + partition"),
                ("empty", ""))
    attack_rows = [
        [f"{row['behavior'] or 'none'}{label}", row["seed"], row["planted"] or "-",
         row["status"], row["violations"], f"{row['prefix']}/{row['floor']}",
         ", ".join(f"{reason}={count}" for reason, count in row["rejections"].items()) or "-",
         row["unquarantined"]]
        for section, label in overlays for row in attacks[section]
    ]

    def claim_table(title: str, section):
        return (title, ["claim", "bound", "measured", "at", "holds"],
                [[c["claim"], c["bound"], c["measured"], c["at"], c["holds"]] for c in section])

    tables = [
        (f"Fig. 4 — transmission / Gini / delivery, {record['minutes']:g} min, "
         "mean of 2 seeds",
         ["nodes", "items/min", "MB/node", "Gini", "delivery (s)", "failed/served", "blocks"],
         fig4),
        ("Fig. 5 — optimal vs random placement, 1 item/min",
         ["nodes", "opt delivery", "rand delivery", "opt MB/node", "rand MB/node"],
         fig5),
        ("Fig. 6 — battery vs mining time (PoW difficulty 4, seed 0)",
         ["minutes", "PoW blocks", "PoW battery %", "PoS blocks", "PoS battery %"],
         record["fig6"]["rows"]),
        claim_table("Paper claims", record["claims"]),
        ("Ablation A1 — FDC weight A (paper fixes A = 1000), 20 nodes, mean of 2 seeds",
         ["A", "Gini", "delivery (s)", "slots used/node", "MB/node"],
         [[r[k] for k in ("weight", "gini", "delivery", "slots", "mb")]
          for r in mech["fdc_weight"]]),
        ("Ablation A3 — recent-block allocation under churn, 20 nodes, 3 seeds",
         ["metric", "cache ON (paper)", "cache OFF"],
         [[label, on[key], off[key]] for label, key in (
             ("recoveries completed", "recoveries"), ("mean recovery time (s)", "mean"),
             ("p95 recovery time (s)", "p95"), ("recovery traffic (KB)", "kb"))]),
        ("Ablation A4 — realised block interval (target t0 = 60 s), 2 seeds",
         ["nodes", "mean interval (s)", "std (s)", "blocks"],
         [[r["nodes"], r["mean"], r["std"], r["blocks"]] for r in mech["pos_interval"]]),
        ("Ablation A4 — S rescaling, 20 nodes, t0 = 30 s", ["rescale S", "mean interval (s)"],
         [["every 10 blocks", mech["rescale"]["every_10"]], ["never", mech["rescale"]["never"]]]),
        ("Ablation A7 — network-level consensus energy (10 nodes, t0=30s, 20 min)",
         ["metric", "PoS (paper)", "PoW baseline"],
         [[label, round(pos[key], digits), round(pow_[key], digits)] for label, key, digits in (
             ("chain height", "height", None), ("network power (W)", "network_watts", 1),
             ("per-device power (W)", "per_node_watts", 2),
             ("energy per block (J)", "joules_per_block", None))]),
        ("Ablation A8 — denying storers among 20 nodes (invalidity-claim protocol active)",
         ["malicious", "request success", "avg delivery (s)", "claims"],
         [[f"{r['fraction']:.0%}", r["success"], r["delivery"], r["claims"]]
          for r in mech["deniers"]]),
        claim_table("Mechanism claims", mech["claims"]),
        ("Scale — 15 min, 2 items/min, 30 s blocks, seed 5",
         ["nodes", "items", "blocks", "deliveries", "avg delivery (s)", "Gini", "failed"],
         [[c[k] for k in ("nodes", "items", "height", "served", "delivery", "gini", "failed")]
          for c in scale["cells"]]),
        claim_table("Scale claims", scale["claims"]),
        ("Adversaries — 3 of 10 nodes planted (f < n/3), 20 min, 30 s blocks, "
         "signatures verified",
         ["adversary", "seed", "planted", "verdict", "safety violations", "prefix/floor",
          "rejections", "acted, unquarantined"],
         attack_rows),
        claim_table("Adversary claims", attacks["claims"]),
    ]
    for title, headers, rows in tables:
        print()
        print(render_table(title, headers, rows))
    heaviest = max(cell["avg_node_mb"] for cell in record["fig4"])
    failed = sum(not claim["holds"] for claim in claims)
    print(
        f"\npaper: a node transmits 'a maximum about 120 MB'; measured up to "
        f"{heaviest:.0f} MB. Not reproduced (EXPERIMENTS.md deviation 2), not gated."
    )
    print(
        f"{len(claims) - failed}/{len(claims)} claims hold "
        f"({time.perf_counter() - start:.1f} s)"
    )
    _write(record, args.json)
    return 1 if failed else 0


def _kill_spec(args: argparse.Namespace):
    """The ``--kill`` drill as a KillSpec (None when not asked for)."""
    from repro.net.harness import KillSpec

    if getattr(args, "kill", None) is None:
        return None
    return KillSpec(
        node_id=args.kill, at_minutes=args.kill_at, down_minutes=args.kill_down
    )


def _live_spec(args: argparse.Namespace):
    """Build a LiveSpec from the shared ``live`` flag set."""
    from repro.net.harness import LiveSpec

    with _user_input():
        return LiveSpec(
            node_count=args.nodes,
            config=_config(args),
            seed=args.seed,
            duration_minutes=args.minutes,
            time_scale=args.time_scale,
            base_port=args.base_port,
            kill=_kill_spec(args),
        )


def cmd_live_run(args: argparse.Namespace) -> int:
    if args.procs:
        # The node processes own the obs plane (one origin each); the
        # parent only launches, scrapes, and merges their artefacts.
        return _live_run_procs(args)
    from repro.net.harness import run_live_experiment

    with _observed(args):
        result = run_live_experiment(_live_spec(args))
        label = (
            f"Live run: {args.nodes} nodes, {args.minutes:g} min at "
            f"{args.time_scale:g}x wall, seed={args.seed}"
        )
        _print_run_summary(label, result.metrics)
        print(
            f"chain digest {result.chain_digest[:16]}… on all nodes: "
            f"{result.digests_agree}; reconnects: {result.reconnects}"
        )
        _print_agreement(result.agreement)
        if result.resynced is not None:
            print(f"killed node resynced: {result.resynced}")
        if args.json:
            record = metrics_to_record(
                result.metrics, seed=args.seed, rate=args.rate, solver=args.solver
            )
            record.update(result.summary())
            _write([record], args.json)
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

    from repro.net.harness import ChainView, chain_agreement

    # The parent holds no metrics of its own to drill or record.
    for flag, value in (("--kill", args.kill), ("--json", args.json)):
        if value is not None:
            raise SystemExit(f"error: {flag} is not supported with --procs")
    _check_telemetry(args)
    telemetry = args.telemetry
    base_port = args.base_port or 46200
    telemetry_base = (telemetry or 47300) if telemetry is not None else None
    start_at = _time.time() + args.start_lead
    # Every child rebuilds the same LiveSpec from the shared live flags.
    command = [sys.executable, "-m", "repro", "live", "node"]
    for name in ("nodes", "minutes", "seed", "rate", "solver", "block_interval",
                 "time_scale"):
        command += ["--" + name.replace("_", "-"), str(getattr(args, name))]
    command += ["--base-port", str(base_port), "--start-at", repr(start_at)]

    def _node_args(node_id: int) -> List[str]:
        extra = ["--node-id", str(node_id)]
        if args.obs:
            extra += ["--obs", str(Path(args.obs) / f"node{node_id}")]
            extra += ["--obs-timebase", args.obs_timebase]
            if args.obs_sample is not None:
                extra += ["--obs-sample", str(args.obs_sample)]
            if telemetry_base is not None:
                extra += ["--telemetry", str(telemetry_base + node_id)]
            if args.profile:
                extra.append("--profile")
                if args.profile_hz is not None:
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
    if failed:
        return 1
    rows = [
        [
            record["node"],
            record["chain_height"],
            record["chain_digest"][:16],
            record["blocks_mined"],
            record["reconnects"],
        ]
        for record in results
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
    agree = len({record["chain_digest"] for record in results}) == 1
    print(f"chain digests agree across processes: {agree}")
    agreement = chain_agreement(
        (
            ChainView(record["chain_height"], tuple(record["chain_hashes"]))
            for record in results
        ),
        sum(record["workload_mismatches"] for record in results),
    )
    _print_agreement(agreement)
    if args.obs:
        _merge_proc_artefacts(args)
    return 0 if agreement.healthy else 1


def _print_agreement(agreement) -> None:
    """The live health line, however the nodes were hosted."""
    print(
        f"healthy: {agreement.healthy} (prefix consistent: "
        f"{agreement.prefix_consistent}, max lag: {agreement.max_lag}, "
        f"workload mismatches: {agreement.workload_mismatches})"
    )


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
    _merge_obs(
        [path / obs.METRICS_NAME for path in sources],
        root / "metrics_merged.json",
        [path / obs.TRACE_NAME for path in sources],
        root / obs.MERGED_TRACE_NAME,
    )


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
    _write(report, args.json)
    return 0 if report["match"] else 1


def cmd_live_node(args: argparse.Namespace) -> int:
    """Internal: host one node of a multi-process cluster (see --procs)."""
    import asyncio

    from repro.net.harness import LiveClusterHarness

    node_id = args.node_id
    # stdout is a protocol surface here — the parent parses the last line
    # as the result JSON — so every obs diagnostic goes to stderr.
    with _observed(args, origin=f"n{node_id}", out=sys.stderr):
        harness = LiveClusterHarness(
            _live_spec(args), hosted=(node_id,), start_at=args.start_at
        )
        try:
            result = asyncio.run(harness.run())
        except TimeoutError as error:  # a peer process never joined the mesh
            raise SystemExit(f"error: {error}")
    record = {
        **result.summary(),
        "node": node_id,
        "chain_hashes": list(result.chains[node_id].hashes),
        "blocks_mined": result.metrics.blocks_mined[node_id],
    }
    print(json.dumps(record, sort_keys=True))
    return 0


def _trace_file(argument: str) -> Path:
    """The trace an obs directory or a trace file path names; must exist."""
    path = Path(argument)
    if path.is_dir():
        path = path / obs.TRACE_NAME
    if not path.exists():
        raise SystemExit(f"error: no trace file at {path}")
    return path


def cmd_trace_summary(args: argparse.Namespace) -> int:
    trace_file = _trace_file(args.source)
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
    events = obs.read_trace_events(_trace_file(args.source))
    print(f"wrote {obs.write_strict_json(events, args.out)} ({len(events)} events)")
    return 0


def _merge_obs(
    metrics_files: Sequence[Path],
    out: Path,
    trace_files: Sequence[Path] = (),
    trace_out: Optional[Path] = None,
) -> None:
    """Merge metrics snapshots into ``out``; stitch traces into ``trace_out``."""
    snapshots = []
    for path in metrics_files:
        try:
            snapshots.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(
                f"error: cannot read metrics snapshot {path}: {error}"
            )
    merged = obs.merge_snapshots(snapshots)
    target = write_json(merged, out)
    print(f"wrote {target} ({len(merged['instruments'])} instruments)")
    if trace_out is None:
        return
    stats = obs.merge_trace_files(trace_files, out=trace_out)
    print(
        f"wrote {stats['out']} ({stats['events']} events, "
        f"{stats['traces']} traces from {len(stats['origins'])} origin(s))"
    )
    print(f"cross-process traces: {stats['cross_process_traces']}")


def cmd_trace_merge(args: argparse.Namespace) -> int:
    sources = [Path(source) for source in args.sources]
    trace_files = []
    if args.trace_out:
        for path in sources:
            trace_file = path / obs.TRACE_NAME if path.is_dir() else path
            if trace_file.name != obs.METRICS_NAME and trace_file.exists():
                trace_files.append(trace_file)
        if not trace_files:
            raise SystemExit(
                "error: --trace-out found no trace.jsonl among the sources"
            )
    _merge_obs(
        [path / obs.METRICS_NAME if path.is_dir() else path for path in sources],
        Path(args.out),
        trace_files,
        args.trace_out,
    )
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
        _write(result.to_dict(), args.json)
    return 1 if result.regressed else 0


def _workload_flags(
    p: argparse.ArgumentParser, nodes: int = 8, minutes: float = 10.0
) -> None:
    """The seeded workload: size, length, seed, data rate and block time."""
    p.add_argument("--nodes", type=int, default=nodes, help="number of nodes")
    p.add_argument("--minutes", type=float, default=minutes)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=1.0, help="data items per minute")
    p.add_argument("--solver", default="greedy", choices=["greedy", "random"])
    p.add_argument("--block-interval", type=float, default=60.0)


def _kill_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kill", type=int, default=None, metavar="NODE",
        help="kill this node mid-run and restart it "
             "(reconnect + resync drill)",
    )
    p.add_argument(
        "--kill-at", type=float, default=3.0, metavar="MINUTES",
        help="simulated minutes into the run to kill the node (default 3)",
    )
    p.add_argument(
        "--kill-down", type=float, default=2.0, metavar="MINUTES",
        help="simulated minutes the node stays down (default 2)",
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


def _obs_flags(p: argparse.ArgumentParser, telemetry: bool = False) -> None:
    """``--obs DIR`` and its knobs; ``telemetry`` adds the live plane."""
    p.add_argument(
        "--obs", metavar="DIR",
        help="enable observability: write a Perfetto trace, a metrics "
             "snapshot, the protocol timeline and monitor verdict "
             "into DIR",
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
    if not telemetry:
        return
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Edge blockchain reproduction (ICDCS 2019) — experiment CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pause = "pause cleanly after this much simulated time (requires --persist)"
    pause_again = "pause again after this much additional simulated time"

    run = sub.add_parser("run", help="run one experiment")
    _workload_flags(run, nodes=20, minutes=60.0)
    _lifecycle_flags(run)
    run.add_argument("--json", help="write metrics record to this JSON file")
    run.add_argument("--csv", help="write metrics record to this CSV file")
    run.add_argument(
        "--persist", metavar="DIR",
        help="make the run durable: journal and chain store in DIR",
    )
    run.add_argument("--stop-after", type=float, metavar="SECONDS", help=pause)
    run.add_argument(
        "--journal-every", type=float, default=30.0, metavar="SECONDS",
        help="simulated seconds between journal flushes (default 30)",
    )
    _obs_flags(run, telemetry=True)
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser("resume", help="continue a durable run after a stop/crash")
    resume.add_argument("directory", help="run directory created by `run --persist`")
    resume.add_argument("--stop-after", type=float, metavar="SECONDS", help=pause_again)
    _obs_flags(resume)
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
        "source", help="run directory or archive.bin path"
    )
    archive_inspect.set_defaults(func=cmd_archive_inspect)
    archive_fetch = archive_sub.add_parser(
        "fetch", help="print archived block(s) as canonical JSON, one per line"
    )
    archive_fetch.add_argument(
        "source", help="run directory or archive.bin path"
    )
    archive_fetch.add_argument("index", type=int, help="first block index to fetch")
    archive_fetch.add_argument(
        "--stop", type=int, default=None, metavar="INDEX",
        help="fetch the half-open range [index, STOP) instead of one block",
    )
    archive_fetch.set_defaults(func=cmd_archive_fetch)

    reproduce_verb = sub.add_parser(
        "reproduce",
        help="run the paper's Fig. 4/5/6 at 500 minutes; exit 1 when a claim fails",
    )
    reproduce_verb.add_argument(
        "--json", metavar="PATH", help="also write the record (cells and claims) as JSON"
    )
    reproduce_verb.set_defaults(func=cmd_reproduce)

    live = sub.add_parser(
        "live", help="run the protocol over real TCP sockets on localhost"
    )
    live_sub = live.add_subparsers(dest="live_command", required=True)

    def _live_verb(name: str, help: str) -> argparse.ArgumentParser:
        p = live_sub.add_parser(name, help=help)
        _workload_flags(p)
        p.add_argument(
            "--time-scale", type=float, default=0.02,
            help="wall seconds per simulated second (default 0.02 = 50x)",
        )
        p.add_argument(
            "--base-port", type=int, default=0,
            help="first TCP port (node i listens on base+i); 0 = ephemeral",
        )
        return p

    live_run = _live_verb(
        "run", "N live nodes on localhost driving the seeded workload"
    )
    live_run.add_argument(
        "--procs", action="store_true",
        help="one OS process per node instead of asyncio tasks",
    )
    live_run.add_argument(
        "--start-lead", type=float, default=8.0, metavar="SECONDS",
        help="--procs only: wall seconds for all node processes to boot "
             "and mesh up before logical t=0 (default 8)",
    )
    _kill_flags(live_run)
    live_run.add_argument("--json", help="write the run record to this JSON file")
    _obs_flags(live_run, telemetry=True)
    live_run.set_defaults(func=cmd_live_run)

    live_parity = _live_verb(
        "parity",
        "run the same seed on simnet and live; exit 1 unless the "
        "chain digests match",
    )
    live_parity.add_argument("--json", help="write the parity report to this file")
    live_parity.set_defaults(func=cmd_live_parity)

    live_node = _live_verb("node", "internal: host one node of a --procs cluster")
    live_node.add_argument("--node-id", type=int, required=True)
    live_node.add_argument(
        "--start-at", type=float, required=True,
        help="shared epoch instant at which logical t=0 begins",
    )
    _obs_flags(live_node, telemetry=True)
    live_node.set_defaults(func=cmd_live_node)

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
