"""The paper's figures: named scenario builders and the one run of them.

Each ``*_scenario`` function returns the
:class:`~repro.sim.runner.ExperimentSpec` for one cell (see DESIGN.md
§4), so the exact parameters of each reproduced experiment live in one
place.  A figure cell (:func:`data_amount_scenario`,
:func:`placement_scenario`) always runs the paper's 500 minutes; the
ablation scenarios default to :data:`BENCH_DURATION_MINUTES`.

:func:`reproduce` runs Section VI once at the paper's settings — the
Fig. 4 and Fig. 5 sweeps (:func:`fig4_grid`, :func:`fig5_grid`) over two
seeds, the Fig. 6 battery sessions (:func:`mining_session`) and the
energy headline (:func:`pos_energy_saving`) — and returns one plain-data
record whose ``claims`` (:func:`paper_claims`) hold or fail, as do those
of the design choices the paper defends in prose (:func:`mechanisms`), of
node counts past its sweep (:func:`scale`) and of the Byzantine
adversaries the admission checks stop (:func:`adversaries`).  ``repro
reproduce`` prints it and exits non-zero when a claim fails.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos import ADVERSARY_TYPES, compute_verdict
from repro.core.adversary import DenyingNode
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.pos import compute_amendment, compute_hit, mining_delay
from repro.core.pow import PAPER_POW_DIFFICULTY, PowMiner, pow_difficulty_for
from repro.energy.meter import EnergyMeter
from repro.sim.cluster import build_cluster
from repro.sim.runner import ChurnSpec, ExperimentSpec, advance, build_runtime, run_experiment
from repro.simnet.faults import PartitionInjector

#: Node counts of the Fig. 4 / Fig. 5 sweeps.
PAPER_NODE_COUNTS: Tuple[int, ...] = (10, 20, 30, 40, 50)

#: Data generation rates (items/minute) of the Fig. 4 sweep.
PAPER_DATA_RATES: Tuple[float, ...] = (1.0, 2.0, 3.0)

#: Placement arms of the Fig. 5 comparison: the paper's optimal
#: placement and the replica-matched random store.
PLACEMENT_ARMS: Tuple[str, ...] = ("greedy", "random")

#: Seeds averaged per cell ("All results are the average of 2 simulations").
PAPER_SEED_COUNT = 2

#: Run length in minutes of the ablation scenarios (figure cells run the
#: paper's 500).
BENCH_DURATION_MINUTES = 60.0

#: Fig. 6 block time in seconds, PoW and PoS alike (paper Section VI-C).
FIG6_BLOCK_TIME = 25.0

#: Fig. 6 session length in minutes (the paper's handset run).
FIG6_MINUTES = 84.0

#: Ablation A4's target block interval t0 in seconds.
INTERVAL_T0 = 60.0
#: The scale sweep's node counts (up to 20x the paper's 50) and its seed.
SCALE_NODE_COUNTS: Tuple[int, ...] = (100, 400, 1000)
SCALE_SEED = 5
#: Each adversary claim's run: nodes, of them planted (f < n/3), seeds.
ADVERSARY_NODES, ADVERSARY_COUNT = 10, 3
ADVERSARY_SEEDS: Tuple[int, ...] = (0, 1)


def data_amount_scenario(
    node_count: int,
    items_per_minute: float,
    seed: int = 0,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """One cell of the Fig. 4 sweep (node count × data rate)."""
    config = replace(base_config, data_items_per_minute=items_per_minute)
    return ExperimentSpec(node_count=node_count, config=config, seed=seed)


def placement_scenario(
    node_count: int,
    solver: str,
    seed: int = 0,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """One arm of the Fig. 5 comparison (optimal vs random store).

    Fig. 5 fixes the data rate at 1 item/minute and varies the node count;
    ``solver`` is ``"greedy"`` for the paper's optimal placement and
    ``"random"`` for the replica-matched naive baseline.  The optimal arm
    is the same spec as ``data_amount_scenario(node_count, 1.0)``.
    """
    config = replace(
        base_config, data_items_per_minute=1.0, placement_solver=solver
    )
    return ExperimentSpec(node_count=node_count, config=config, seed=seed)


def churn_scenario(
    node_count: int = 30,
    seed: int = 0,
    recent_cache_enabled: bool = True,
    duration_minutes: float = BENCH_DURATION_MINUTES,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """Churn-heavy scenario for the recent-block-allocation ablation.

    With the cache disabled (capacity 0 and no extra assignments), missing
    blocks are only recoverable from their permanent storing nodes, so
    recovery takes more hops and more recovery traffic.
    """
    config = replace(
        base_config,
        data_items_per_minute=1.0,
        recent_cache_capacity=base_config.recent_cache_capacity
        if recent_cache_enabled
        else 0,
    )
    return ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
        churn=ChurnSpec(node_fraction=0.3, events_per_node=2.0, mean_downtime_seconds=150.0),
    )


def mining_only_scenario(
    node_count: int,
    expected_interval: float = 60.0,
    duration_minutes: float = BENCH_DURATION_MINUTES,
    seed: int = 0,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """No data workload: isolates the PoS block-interval behaviour."""
    config = replace(
        base_config,
        data_items_per_minute=0.0,
        expected_block_interval=expected_interval,
    )
    return ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
        mobility_epoch_minutes=0.0,
    )


def fdc_weight_scenario(
    fdc_weight: float,
    node_count: int = 30,
    seed: int = 0,
    duration_minutes: float = BENCH_DURATION_MINUTES,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """Ablation over the FDC:RDC scaling factor A (paper fixes A = 1000)."""
    config = replace(
        base_config, fdc_weight=fdc_weight, data_items_per_minute=1.0
    )
    return ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=duration_minutes,
    )


def denier_scenario(fraction: float, seed: int = 0) -> ExperimentSpec:
    """Ablation A8: ``fraction`` of 20 nodes, drawn from
    ``default_rng(seed + 1000)``, are :class:`DenyingNode` free-riders that
    accept storage assignments and refuse to serve."""
    node_count, rng = 20, np.random.default_rng(seed + 1000)
    count = int(round(fraction * node_count))
    malicious = sorted(int(n) for n in rng.choice(node_count, size=count, replace=False))
    config = replace(PAPER_CONFIG, data_items_per_minute=1.0, expected_block_interval=30.0)
    return ExperimentSpec(node_count=node_count, config=config, seed=seed, duration_minutes=45.0,
                          node_classes={node: DenyingNode for node in malicious})


def adversary_scenario(
    behavior: Optional[str], seed: int, churn: Optional[ChurnSpec] = None
) -> ExperimentSpec:
    """One adversary run: :data:`ADVERSARY_COUNT` of the
    :data:`ADVERSARY_NODES` nodes, drawn from ``default_rng(seed + 1000)``,
    run ``behavior`` (an :data:`~repro.chaos.ADVERSARY_TYPES` name; None
    plants nobody).  20 minutes at 2 items/min and 30 s blocks, with
    metadata signatures verified so the tamperer's forgeries can fail."""
    rng = np.random.default_rng(seed + 1000)
    planted = rng.choice(ADVERSARY_NODES, size=ADVERSARY_COUNT, replace=False) if behavior else ()
    config = replace(PAPER_CONFIG, data_items_per_minute=2.0, expected_block_interval=30.0,
                     verify_metadata_signatures=True)
    return ExperimentSpec(node_count=ADVERSARY_NODES, config=config, seed=seed,
                          duration_minutes=20.0, churn=churn,
                          node_classes={int(node): ADVERSARY_TYPES[behavior] for node in sorted(planted)})


def scale_scenario(node_count: int) -> ExperimentSpec:
    """One scale cell at :data:`SCALE_SEED`: 2 items/min, 30 s blocks and
    15 minutes, long enough for requests to fall due."""
    config = replace(PAPER_CONFIG, data_items_per_minute=2.0, expected_block_interval=30.0)
    return ExperimentSpec(node_count=node_count, config=config, seed=SCALE_SEED,
                          duration_minutes=15.0)


# -- Fig. 4 / Fig. 5 sweeps ---------------------------------------------------------


def fig4_grid() -> Dict[Tuple[int, float], List[ExperimentSpec]]:
    """The Fig. 4 sweep: ``(node count, rate)`` → one spec per seed.

    Cells come node-count-major.
    """
    return {
        (nodes, rate): [
            data_amount_scenario(nodes, rate, seed=seed)
            for seed in range(PAPER_SEED_COUNT)
        ]
        for nodes in PAPER_NODE_COUNTS
        for rate in PAPER_DATA_RATES
    }


def fig5_grid() -> Dict[Tuple[str, int], List[ExperimentSpec]]:
    """The Fig. 5 sweep: ``(solver, node count)`` → one spec per seed.

    Cells come node-count-major, each count's :data:`PLACEMENT_ARMS` in
    order.
    """
    return {
        (solver, nodes): [
            placement_scenario(nodes, solver, seed=seed)
            for seed in range(PAPER_SEED_COUNT)
        ]
        for nodes in PAPER_NODE_COUNTS
        for solver in PLACEMENT_ARMS
    }


def run_cell(spec: ExperimentSpec) -> Dict[str, float]:
    """Run one figure cell at one seed and keep what its claims read."""
    result = run_experiment(spec)
    metrics = result.metrics
    return {
        "seed": spec.seed,
        "avg_node_mb": float(metrics.average_node_megabytes()),
        "gini": float(metrics.storage_gini()),
        "delivery": float(metrics.average_delivery_time()),
        "p95_delivery": float(metrics.delivery_summary().p95),
        "failed": int(metrics.failed_requests),
        "served": len(metrics.delivery_times),
        "height": metrics.chain_height(),
        "interval": float(metrics.mean_block_interval()),
        # Fullest node's used share of its slots; over 1 breaches capacity.
        "storage_fill": max(
            node.storage.used_slots() / node.storage.capacity
            for node in result.cluster.nodes.values()
        ),
    }


def cell_average(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """One cell's per-seed runs as the paper plots them: scalars averaged,
    failed and served requests summed."""
    count = len(runs)
    average = {
        key: sum(run[key] for run in runs) / count
        for key in ("avg_node_mb", "gini", "delivery", "height", "interval")
    }
    return {
        **average,
        "failed": sum(run["failed"] for run in runs),
        "served": sum(run["served"] for run in runs),
    }


# -- Fig. 6 battery sessions ---------------------------------------------------------


def mining_session(
    consensus: str, minutes: float, seed: int = 0
) -> List[Tuple[int, float, float]]:
    """One Fig. 6 session on a fully charged handset.

    ``consensus`` is ``"pow"`` (a sampled difficulty-4 miner drawing from
    ``default_rng(seed)``) or ``"pos"`` (a lone staker's lottery tuned to
    the same :data:`FIG6_BLOCK_TIME`, its hash chain seeded by ``seed``).
    Blocks are mined until ``minutes`` have elapsed or the battery is
    flat; the series holds ``(blocks mined, elapsed seconds, remaining
    battery %)`` after each block.
    """
    meter = EnergyMeter()
    if consensus == "pow":
        rng = np.random.default_rng(seed)
        miner = PowMiner(meter, difficulty=PAPER_POW_DIFFICULTY)

        def mine() -> float:
            return miner.mine_block(rng).duration_seconds

    elif consensus == "pos":
        modulus = 2**64
        amendment = compute_amendment(modulus, 1, FIG6_BLOCK_TIME, 1.0)
        pos_hash = f"fig6-seed-{seed}"

        def mine() -> float:
            nonlocal pos_hash
            hit = compute_hit(pos_hash, "fig6-account", modulus)
            pos_hash += "x"
            delay = mining_delay(hit, 1.0, 1.0, amendment)
            meter.charge_pos_ticks(delay)
            return delay

    else:
        raise ValueError(f"unknown consensus {consensus!r} (pow or pos)")
    series: List[Tuple[int, float, float]] = []
    elapsed = 0.0
    while elapsed < minutes * 60 and not meter.depleted:
        elapsed += mine()
        series.append((len(series) + 1, elapsed, meter.remaining_percent))
    return series


def session_at(
    series: List[Tuple[int, float, float]], minutes: float
) -> Tuple[int, float, float]:
    """A session's reading at ``minutes``: the last block at or before the
    mark, or a fully charged handset with no block before the first."""
    mark = minutes * 60
    return next((p for p in reversed(series) if p[1] <= mark), (0, 0.0, 100.0))


def pos_energy_saving(seed: int, blocks: int = 100) -> float:
    """Percent less energy per block PoS spends than PoW (paper: 64 %).

    PoW's cost is sampled over ``blocks`` difficulty-4 blocks drawn from
    ``default_rng(seed)``; PoS pays its idle lottery ticks for the same
    block time.
    """
    rng = np.random.default_rng(seed)
    pow_meter = EnergyMeter()
    miner = PowMiner(pow_meter, difficulty=PAPER_POW_DIFFICULTY)
    for _ in range(blocks):
        miner.mine_block(rng)
    pos_meter = EnergyMeter()
    pos_meter.charge_pos_ticks(blocks * FIG6_BLOCK_TIME)
    return 100.0 * (1.0 - pos_meter.total_consumed() / pow_meter.total_consumed())


# -- Section VI, once, at the paper's settings ---------------------------------------

#: Fig. 4(a)'s per-node traffic bound: 400 MB per 60 minutes, scaled to
#: the paper's run length.  It bounds the reproduction, not the paper's
#: "about 120 MB", which EXPERIMENTS.md deviation 2 explains.
MB_PER_NODE_BOUND = 400.0 / 60.0 * PAPER_CONFIG.simulation_minutes

Claim = Dict[str, object]


def _claim(
    claim: str,
    bound: str,
    checks: Sequence[Tuple[str, float, bool]],
    worst: Callable = max,
) -> Claim:
    """One claim over ``(where, measured, holds)`` checks.

    It holds when every check does.  ``measured`` is the worst failing
    check's value, or the worst value when none fails (``worst`` is
    :func:`max` for an upper bound, :func:`min` for a lower one).
    """
    at, measured, _ = worst(
        [check for check in checks if not check[2]] or checks, key=itemgetter(1)
    )
    holds = all(check[2] for check in checks)
    return {"claim": claim, "bound": bound, "measured": measured, "at": at, "holds": holds}


def _every(claim, bound, items, ok: Callable[[float], bool], worst=max) -> Claim:
    """:func:`_claim` over ``(where, value)`` items, each checked by ``ok``."""
    return _claim(claim, bound, [(at, value, ok(value)) for at, value in items], worst)


def paper_claims(record: Dict[str, object]) -> List[Claim]:
    """The paper's Section VI claims, checked on :func:`reproduce`'s cells.

    Fig. 4 and Fig. 5 bounds apply to each cell's two-seed mean, the run
    anchors (p95 delivery, blocks, storage) to every seeded run.
    """
    fig4, fig6 = record["fig4"], record["fig6"]

    def at(cell) -> str:
        return f"n={cell['nodes']}, {cell['rate']:g} item/min"

    def cells(key: str):
        return [(at(cell), cell[key]) for cell in fig4]

    def runs(key: str):
        return [
            (f"{at(cell)}, seed {run['seed']}", run[key])
            for cell in fig4
            for run in cell["runs"]
        ]

    column = {(cell["nodes"], cell["rate"]): cell["avg_node_mb"] for cell in fig4}
    arms = {(cell["solver"], cell["nodes"]): cell for cell in record["fig5"]}
    pairs = [(arms[("greedy", n)], arms[("random", n)]) for n in PAPER_NODE_COUNTS]

    def mean_ratio(key: str) -> float:
        return sum(o[key] for o, _ in pairs) / sum(r[key] for _, r in pairs)

    def growth(rate: float) -> float:
        return column[(PAPER_NODE_COUNTS[-1], rate)] / column[(PAPER_NODE_COUNTS[0], rate)]

    saving = 100.0 * (1.0 - mean_ratio("delivery"))
    return [
        _every("Fig. 4(a) MB per node under 400 MB per 60 min", f"< {MB_PER_NODE_BOUND:.0f}",
               cells("avg_node_mb"), lambda v: v < MB_PER_NODE_BOUND),
        _every("Fig. 4(a) every cell moves data", "> 0 MB",
               cells("avg_node_mb"), lambda v: v > 0, worst=min),
        *(
            _every(f"Fig. 4(a) n=50 / n=10 MB per node at {rate:g} item/min", "< 2",
                   [(f"{rate:g} item/min", growth(rate))], lambda v: v < 2.0)
            for rate in PAPER_DATA_RATES
        ),
        _every("Fig. 4(b) storage Gini < 0.15 in every cell", "0 <= x < 0.15",
               cells("gini"), lambda v: 0.0 <= v < 0.15),
        _every("Fig. 4(c) mean delivery < 4 s in every cell", "0 <= x < 4",
               cells("delivery"), lambda v: 0.0 <= v < 4.0),
        _claim("Fig. 4 failed requests per cell", "<= max(1, 1 % of served)",
               [(at(c), c["failed"], c["failed"] <= max(1, 0.01 * c["served"])) for c in fig4]),
        _every("Fig. 4 p95 delivery < 4 s in every run", "< 4",
               runs("p95_delivery"), lambda v: v < 4.0),
        _every("Fig. 4 blocks per 500-minute run, at least", ">= 350",
               runs("height"), lambda v: v >= 350, worst=min),
        _every("Fig. 4 blocks per 500-minute run, at most", "<= 900",
               runs("height"), lambda v: v <= 900),
        _every("Fig. 4 fullest node's storage / capacity in every run", "<= 1",
               runs("storage_fill"), lambda v: v <= 1.0),
        _every("Fig. 5(a) optimal placement saves delivery time vs random (%)", "> 3",
               [("mean over n", saving)], lambda v: v > 3.0),
        _every("Fig. 5(b) optimal / random MB per node in every cell", "<= 1.4",
               [(f"n={o['nodes']}", o["avg_node_mb"] / r["avg_node_mb"]) for o, r in pairs],
               lambda v: v <= 1.4),
        _every("Fig. 5(b) mean optimal / random MB per node", "<= 1.2",
               [("mean over n", mean_ratio("avg_node_mb"))], lambda v: v <= 1.2),
        _every("Fig. 6 PoW blocks per 1 % battery ~4", "4 +/- 30 %",
               [("seed 0", fig6["pow"]["blocks_per_percent"])], lambda v: abs(v - 4.0) <= 1.2),
        _every("Fig. 6 PoS blocks per 1 % battery ~11", "11 +/- 30 %",
               [("seed 0", fig6["pos"]["blocks_per_percent"])], lambda v: abs(v - 11.0) <= 3.3),
        _every("Fig. 6 PoW battery used in 84 min (%)", "> 50",
               [("seed 0", fig6["pow"]["battery_used"])], lambda v: v > 50.0),
        _every("Fig. 6 PoS battery used in 84 min (%)", "< 20",
               [("seed 0", fig6["pos"]["battery_used"])], lambda v: v < 20.0),
        *(
            _every("PoS energy saving per block vs PoW (%)", "64 +/- 8",
                   [(f"seed {entry['seed']}", entry["percent"])],
                   lambda v: abs(v - 64.0) <= 8.0)
            for entry in record["energy_saving"]
        ),
    ]


# -- Mechanisms and scale ------------------------------------------------------------


def probe(spec: ExperimentSpec) -> Dict[str, object]:
    """Run one mechanism or scale run and keep what its claims read."""
    result = run_experiment(spec)
    metrics = result.metrics
    return {
        "gini": float(metrics.storage_gini()),
        "delivery": float(metrics.average_delivery_time()),
        "slots": float(np.mean(metrics.storage_used)),
        "mb": float(metrics.average_node_megabytes()),
        "items": metrics.data_items_produced,
        "height": metrics.chain_height(),
        "served": len(metrics.delivery_times),
        "failed": int(metrics.failed_requests),
        "intervals": [float(v) for v in metrics.block_intervals],
        "recoveries": [float(v) for v in metrics.recovery_durations],
        # Block recovery plus the whole-chain sync it escalates to.
        "recovery_bytes": sum(metrics.category_bytes.get(category, 0)
                              for category in ("block_recovery", "chain_sync")),
        "claims": sum(node.counters.claims_broadcast for node in result.cluster.nodes.values()),
        "digest": result.cluster.longest_chain_node().chain.chain_digest(),
    }


def network_energy(consensus: str) -> Dict[str, float]:
    """Ablation A7: 10 metered nodes mining under ``consensus`` for 20
    minutes at seed 5 and t0 = 30 s, PoW's difficulty retuned so the
    network (not each miner) mines one block per t0 at the handset's rate."""
    nodes, minutes, t0 = 10, 20.0, 30.0
    hash_rate = 16**PAPER_POW_DIFFICULTY / FIG6_BLOCK_TIME
    config = replace(PAPER_CONFIG, consensus=consensus, data_items_per_minute=0.0,
                     expected_block_interval=t0, pow_hash_rate=hash_rate,
                     pow_difficulty=pow_difficulty_for(t0, nodes, hash_rate))
    cluster = build_cluster(nodes, config, seed=5, with_energy_meters=True)
    cluster.start()
    cluster.engine.run_until(minutes * 60.0)
    height = cluster.longest_chain_node().chain.height
    joules = sum(node.meter.total_consumed() for node in cluster.nodes.values())
    watts = joules / (minutes * 60.0)
    return {"height": height, "network_watts": watts, "per_node_watts": watts / nodes,
            "joules_per_block": joules / max(1, height)}


def mechanisms() -> Dict[str, object]:
    """Ablations A1, A3, A4, A7 and A8 at their seeds: the means their claims read."""

    def runs(build, seeds=(0, 1)) -> List[Dict[str, object]]:
        return [probe(build(seed)) for seed in seeds]

    def weighted(weight: float) -> Dict[str, float]:
        cells = runs(lambda s: fdc_weight_scenario(weight, node_count=20, seed=s))
        keys = ("gini", "delivery", "slots", "mb")
        return {"weight": weight, **{key: float(np.mean([c[key] for c in cells])) for key in keys}}

    def recovery(cache: bool) -> Dict[str, float]:
        arm = runs(lambda s: churn_scenario(20, seed=s, recent_cache_enabled=cache), (0, 1, 2))
        durations = [d for run in arm for d in run["recoveries"]]
        p95 = float(np.percentile(durations, 95)) if durations else float("nan")
        return {"recoveries": len(durations), "mean": float(np.mean(durations)), "p95": p95,
                "kb": float(np.mean([run["recovery_bytes"] for run in arm])) / 1e3}

    def interval(nodes: int) -> Dict[str, float]:
        gaps = [gap for run in runs(lambda s: mining_only_scenario(
            nodes, INTERVAL_T0, duration_minutes=120.0, seed=s)) for gap in run["intervals"]]
        return {"nodes": nodes, "mean": float(np.mean(gaps)), "std": float(np.std(gaps)),
                "blocks": len(gaps)}

    def rescaled(every: int) -> float:
        base = mining_only_scenario(20, 30.0, duration_minutes=120.0)
        config = replace(base.config, token_rescale_interval=every)
        return float(np.mean(probe(replace(base, config=config))["intervals"]))

    def deniers(fraction: float) -> Dict[str, float]:
        cells = runs(lambda s: denier_scenario(fraction, seed=s))
        asked = [c["served"] + c["failed"] for c in cells]
        success = [c["served"] / n if n else float("nan") for c, n in zip(cells, asked)]
        return {"fraction": fraction, "success": float(np.mean(success)),
                "delivery": float(np.mean([c["delivery"] for c in cells])),
                "claims": int(np.mean([c["claims"] for c in cells]))}

    pos, pow_ = network_energy("pos"), network_energy("pow")
    return {
        # The paper fixes A = 1000 "after some tests" (Section IV-A-3).
        "fdc_weight": [weighted(weight) for weight in (1.0, 10.0, 100.0, 1000.0, 10000.0)],
        "recent_cache": {"on": recovery(True), "off": recovery(False)},
        "pos_interval": [interval(nodes) for nodes in (10, 30, 50)],
        # 10 000 blocks is past the run: S is never rescaled.
        "rescale": {"every_10": rescaled(10), "never": rescaled(10_000)},
        "network_energy": {"pos": pos, "pow": pow_,
                           "saving": 100.0 * (1.0 - pos["network_watts"] / pow_["network_watts"])},
        "deniers": [deniers(fraction) for fraction in (0.0, 0.1, 0.25, 0.4)],
    }


def mechanism_claims(record: Dict[str, object]) -> List[Claim]:
    """What ablations A1, A3, A4, A7 and A8 show, on :func:`mechanisms`'
    means.  Where a bound compares two arms the check is that comparison,
    and ``measured`` is their ratio."""
    m = record["mechanisms"]
    low, chosen = (next(r for r in m["fdc_weight"] if r["weight"] == a) for a in (1.0, 1000.0))
    on, off = m["recent_cache"]["on"], m["recent_cache"]["off"]
    every, never = m["rescale"]["every_10"], m["rescale"]["never"]
    pos, pow_ = m["network_energy"]["pos"], m["network_energy"]["pow"]
    share = {row["fraction"]: row for row in m["deniers"]}
    return [
        _claim("A1 slots used per node, A=1000 / A=1", "< 0.5", [
            ("A=1000", chosen["slots"] / low["slots"], chosen["slots"] < 0.5 * low["slots"])]),
        _claim("A1 MB per node, A=1000 / A=1", "< 1", [
            ("A=1000", chosen["mb"] / low["mb"], chosen["mb"] < low["mb"])]),
        _claim("A1 mean delivery, A=1000 / A=1", ">= 1", [
            ("A=1000", chosen["delivery"] / low["delivery"],
             chosen["delivery"] >= low["delivery"])]),
        _every("A1 mean delivery at A=1000 (s)", "< 4",
               [("A=1000", chosen["delivery"])], lambda v: v < 4.0),
        _every("A1 storage Gini at A=1000", "< 0.15",
               [("A=1000", chosen["gini"])], lambda v: v < 0.15),
        _every("A3 recoveries completed in each arm", "> 0",
               [("cache on", on["recoveries"]), ("cache off", off["recoveries"])],
               lambda v: v > 0, worst=min),
        _claim("A3 recovery traffic, cache on / off", "< 1",
               [("20 nodes", on["kb"] / off["kb"], on["kb"] < off["kb"])]),
        _claim("A3 mean recovery time, cache on / off", "<= 2",
               [("20 nodes", on["mean"] / off["mean"], on["mean"] <= off["mean"] * 2.0)]),
        _every(f"A4 mean block interval at every n (s), t0 = {INTERVAL_T0:g} s",
               f"{0.5 * INTERVAL_T0:g} <= x <= {1.5 * INTERVAL_T0:g}",
               [(f"n={row['nodes']}", row["mean"]) for row in m["pos_interval"]],
               lambda v: 0.5 * INTERVAL_T0 <= v <= 1.5 * INTERVAL_T0),
        _claim("A4 |interval rescaling S every 10 blocks - never| / never", "<= 0.25", [
            ("20 nodes", abs(every - never) / abs(never),
             abs(every - never) <= 0.25 * abs(never))]),
        _every("A7 PoS / PoW chain height", "0.4 < x < 2.5",
               [("10 nodes", pos["height"] / pow_["height"])], lambda v: 0.4 < v < 2.5),
        _every("A7 PoS network power saving vs PoW (%)", "> 50",
               [("10 nodes", m["network_energy"]["saving"])], lambda v: v > 50.0, worst=min),
        _every("A8 request success with no deniers", "> 0.99",
               [("0 %", share[0.0]["success"])], lambda v: v > 0.99, worst=min),
        _every("A8 request success with 25 % deniers", "> 0.95",
               [("25 %", share[0.25]["success"])], lambda v: v > 0.95, worst=min),
        _every("A8 claims broadcast with no deniers", "= 0",
               [("0 %", share[0.0]["claims"])], lambda v: v == 0),
        _every("A8 claims broadcast with 25 % or 40 % deniers", "> 0",
               [("25 % or 40 %", max(share[0.25]["claims"], share[0.4]["claims"]))],
               lambda v: v > 0, worst=min),
    ]


def scale() -> List[Dict[str, object]]:
    """The scale sweep: one :func:`scale_scenario` cell per node count."""
    keys = ("items", "height", "served", "delivery", "gini", "failed")
    runs = {nodes: probe(scale_scenario(nodes)) for nodes in SCALE_NODE_COUNTS}
    return [{"nodes": nodes, "seed": SCALE_SEED, **{key: run[key] for key in keys}}
            for nodes, run in runs.items()]


def scale_claims(record: Dict[str, object]) -> List[Claim]:
    """In every scale cell the chain advances, work is produced and
    served, storage stays balanced and no request fails."""
    checks = [
        ("chain height", "height", ">= 3", lambda v: v >= 3, min),
        ("items produced", "items", "> 0", lambda v: v > 0, min),
        ("deliveries", "served", "> 0", lambda v: v > 0, min),
        ("storage Gini", "gini", "< 0.15", lambda v: v < 0.15, max),
        ("failed requests", "failed", "= 0", lambda v: v == 0, max),
    ]
    return [
        _every(f"Scale {name} in every cell", bound,
               [(f"n={cell['nodes']}", cell[key]) for cell in record["scale"]["cells"]], ok, worst)
        for name, key, bound, ok, worst in checks
    ]


def attack(
    spec: ExperimentSpec, partition: Optional[Tuple[float, float]] = None
) -> Dict[str, object]:
    """Run one adversary spec and keep what its claims read of its verdict
    (:func:`~repro.chaos.verdict.compute_verdict`).

    ``partition`` splits the node ids in half between its two minutes,
    scheduled between build and advance.  ``violations`` counts invalid
    honest chains, a forked genesis, checkpoint violations and honest
    nodes quarantined; ``unquarantined`` the planted nodes that sent a
    forgery and that no honest node quarantined.
    """
    runtime = build_runtime(spec)
    if partition is not None:
        half = spec.node_count // 2
        PartitionInjector(runtime.cluster.network, runtime.engine).schedule(
            list(range(half)), list(range(half, spec.node_count)),
            at=partition[0] * 60.0, heal_at=partition[1] * 60.0)
    advance(runtime)
    planted = sorted(spec.node_classes)
    verdict = compute_verdict(runtime.cluster.nodes, planted,
                              spec.config.expected_block_interval, spec.duration_seconds)
    safety, liveness, admission = verdict["safety"], verdict["liveness"], verdict["admission"]
    return {
        "seed": spec.seed,
        "planted": planted,
        "status": verdict["status"],
        "violations": len(safety["invalid_chains"]) + (not safety["genesis_consistent"])
        + len(safety["checkpoint_violations"]) + len(safety["honest_quarantined"]),
        "prefix": liveness["common_prefix_height"],
        "floor": liveness["growth_floor"],
        "rejections": admission["rejections"],
        "unquarantined": sum(1 for node in planted if verdict["chaos_actions"][str(node)]
                             and node not in admission["quarantined_peers"]),
        "digest": verdict["honest_digest"],
    }


def adversaries() -> Dict[str, object]:
    """Each adversary type at :data:`ADVERSARY_SEEDS`, the spammer under
    25 % churn and under a half/half partition from minute 1 to 2, and an
    empty mix beside the plain run of the same spec."""

    def runs(behavior: str, churn=None, partition=None) -> List[Dict[str, object]]:
        return [{"behavior": behavior, **attack(adversary_scenario(behavior, seed, churn), partition)}
                for seed in ADVERSARY_SEEDS]

    empty = [adversary_scenario(None, seed) for seed in ADVERSARY_SEEDS]
    return {
        "runs": [row for behavior in ADVERSARY_TYPES for row in runs(behavior)],
        "churn": runs("spammer", churn=ChurnSpec(node_fraction=0.25)),
        "partition": runs("spammer", partition=(1.0, 2.0)),
        "empty": [{"behavior": None, **attack(spec),
                   "plain_digest": probe(replace(spec, node_classes=None))["digest"]}
                  for spec in empty],
    }


def adversary_claims(record: Dict[str, object]) -> List[Claim]:
    """What :func:`adversaries` shows: safety and liveness under each
    adversary at f < n/3, and the rejection each adversary type draws."""
    a = record["adversaries"]

    def at(row) -> str:
        return f"{row['behavior']}, seed {row['seed']}"

    def rows(section: str, *behaviors: str):
        return [row for row in a[section] if not behaviors or row["behavior"] in behaviors]

    return [
        _every("Adversary safety violations per run, f < n/3", "= 0",
               [(at(row), row["violations"]) for row in rows("runs")], lambda v: v == 0),
        _every("Adversary honest common prefix / growth floor per run, f < n/3", ">= 1",
               [(at(row), row["prefix"] / row["floor"]) for row in rows("runs")],
               lambda v: v >= 1.0, worst=min),
        _every("Spammers, equivocators and flooders that acted, unquarantined", "= 0",
               [(at(row), row["unquarantined"])
                for row in rows("runs", "spammer", "equivocator", "flooder")], lambda v: v == 0),
        _every("Tamperer bad_producer and bad_signature rejections", "> 0",
               [(f"{at(row)}, {reason}", row["rejections"].get(reason, 0))
                for row in rows("runs", "tamperer") for reason in ("bad_producer", "bad_signature")],
               lambda v: v > 0, worst=min),
        _claim("Spammer under 25 % churn: not critical, prefix / growth floor", ">= 1", [
            (at(row), row["prefix"] / row["floor"],
             row["status"] != "critical" and row["prefix"] >= row["floor"])
            for row in rows("churn")], worst=min),
        _every("Spammer under a 1-2 min half/half partition: safety violations", "= 0",
               [(at(row), row["violations"]) for row in rows("partition")], lambda v: v == 0),
        _claim("No adversary: rejections; verdict ok on the plain run's digest", "= 0", [
            (f"seed {row['seed']}", sum(row["rejections"].values()),
             not row["rejections"] and row["status"] == "ok"
             and row["digest"] == row["plain_digest"])
            for row in rows("empty")]),
    ]


def _drain(series: List[Tuple[int, float, float]]) -> Dict[str, float]:
    """A Fig. 6 session's totals after its last block."""
    blocks, _, remaining = series[-1]
    used = 100.0 - remaining
    return {"blocks": blocks, "battery_used": used, "blocks_per_percent": blocks / used}


def reproduce() -> Dict[str, object]:
    """Run Section VI once at the paper's settings and check its claims.

    Every Fig. 4 and Fig. 5 cell runs 500 minutes at each of
    :data:`PAPER_SEED_COUNT` seeds, through :func:`run_cell`.  Each
    distinct spec runs once: Fig. 5's optimal arm is the same specs as
    Fig. 4's 1 item/min column, so only its random arm adds runs.  The
    Fig. 6 sessions run at seed 0, the energy headline at every seed.
    """
    done: Dict[ExperimentSpec, Dict[str, float]] = {}

    def cells(grid, names: Tuple[str, str]) -> List[Dict[str, object]]:
        out = []
        for key, specs in grid.items():
            for spec in specs:
                if spec not in done:
                    done[spec] = run_cell(spec)
            runs = [done[spec] for spec in specs]
            out.append({**dict(zip(names, key)), **cell_average(runs), "runs": runs})
        return out

    pow_series = mining_session("pow", FIG6_MINUTES)
    pos_series = mining_session("pos", FIG6_MINUTES)
    record: Dict[str, object] = {
        "schema": "repro.reproduce/v1",
        "minutes": PAPER_CONFIG.simulation_minutes,
        "fig4": cells(fig4_grid(), ("nodes", "rate")),
        "fig5": cells(fig5_grid(), ("solver", "nodes")),
        "fig6": {
            "pow": _drain(pow_series),
            "pos": _drain(pos_series),
            "rows": [
                [minutes, *session_at(pow_series, minutes)[::2],
                 *session_at(pos_series, minutes)[::2]]
                for minutes in range(0, int(FIG6_MINUTES) + 1, 12)
            ],
        },
        "energy_saving": [
            {"seed": seed, "percent": pos_energy_saving(seed)}
            for seed in range(PAPER_SEED_COUNT)
        ],
    }
    record["claims"] = paper_claims(record)
    record["mechanisms"] = mechanisms()
    record["mechanisms"]["claims"] = mechanism_claims(record)
    record["scale"] = {"cells": scale()}
    record["scale"]["claims"] = scale_claims(record)
    record["adversaries"] = adversaries()
    record["adversaries"]["claims"] = adversary_claims(record)
    return record
