"""The paper's figures: named scenario builders and the loops that run them.

Each ``*_scenario`` function returns the
:class:`~repro.sim.runner.ExperimentSpec` for one figure cell (see
DESIGN.md §4), so the exact parameters of each reproduced experiment live
in one place.  The figure loops live here too, written once for every
caller — the ``repro fig4|fig5|fig6`` verbs and the ``benchmarks/``
suite:

* :func:`fig4_grid` / :func:`fig5_grid` — the Section VI-A/B sweeps,
  cell → per-seed spec; :func:`run_grid` turns them into per-seed
  :class:`~repro.metrics.collector.RunMetrics`, and :func:`cell_average`
  into the per-cell mean the paper plots;
* :func:`mining_session` — one Fig. 6 PoW or PoS battery series,
  :func:`session_at`, its reading at a time mark, and
  :func:`pos_energy_saving`, the per-block saving it headlines.

The default sweep durations are shorter than the paper's 500 minutes so a
full benchmark suite completes in CI time; pass ``full_scale=True`` to use
the paper's durations.  Shape conclusions (who wins, by what factor) are
duration-stable — the scale tests in ``tests/integration`` check that.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Tuple, TypeVar

import numpy as np

from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.pos import compute_amendment, compute_hit, mining_delay
from repro.core.pow import PAPER_POW_DIFFICULTY, PowMiner
from repro.energy.meter import EnergyMeter
from repro.metrics.collector import RunMetrics
from repro.sim.runner import ChurnSpec, ExperimentSpec, run_experiment

#: Node counts of the Fig. 4 / Fig. 5 sweeps.
PAPER_NODE_COUNTS: Tuple[int, ...] = (10, 20, 30, 40, 50)

#: Data generation rates (items/minute) of the Fig. 4 sweep.
PAPER_DATA_RATES: Tuple[float, ...] = (1.0, 2.0, 3.0)

#: Placement arms of the Fig. 5 comparison: the paper's optimal
#: placement and the replica-matched random store.
PLACEMENT_ARMS: Tuple[str, ...] = ("greedy", "random")

#: Seeds averaged per cell ("All results are the average of 2 simulations").
PAPER_SEED_COUNT = 2

#: Bench-scale run length in minutes (paper: 500).
BENCH_DURATION_MINUTES = 60.0

#: Fig. 6 block time in seconds, PoW and PoS alike (paper Section VI-C).
FIG6_BLOCK_TIME = 25.0


def data_amount_scenario(
    node_count: int,
    items_per_minute: float,
    seed: int = 0,
    full_scale: bool = False,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """One cell of the Fig. 4 sweep (node count × data rate)."""
    config = replace(base_config, data_items_per_minute=items_per_minute)
    return ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=None if full_scale else BENCH_DURATION_MINUTES,
    )


def placement_scenario(
    node_count: int,
    solver: str,
    seed: int = 0,
    full_scale: bool = False,
    base_config: SystemConfig = PAPER_CONFIG,
) -> ExperimentSpec:
    """One arm of the Fig. 5 comparison (optimal vs random store).

    Fig. 5 fixes the data rate at 1 item/minute and varies the node count;
    ``solver`` is ``"greedy"`` for the paper's optimal placement and
    ``"random"`` for the replica-matched naive baseline.
    """
    config = replace(
        base_config, data_items_per_minute=1.0, placement_solver=solver
    )
    return ExperimentSpec(
        node_count=node_count,
        config=config,
        seed=seed,
        duration_minutes=None if full_scale else BENCH_DURATION_MINUTES,
    )


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


# -- Fig. 4 / Fig. 5 sweeps ---------------------------------------------------------


Cell = TypeVar("Cell", bound=Hashable)


def _grid(
    cells: Mapping[Cell, Callable[..., ExperimentSpec]], seeds: Iterable[int]
) -> Dict[Cell, List[ExperimentSpec]]:
    seeds = tuple(seeds)
    return {key: [build(seed=seed) for seed in seeds] for key, build in cells.items()}


def run_grid(grid: Mapping[Cell, List[ExperimentSpec]]) -> Dict[Cell, List[RunMetrics]]:
    """Run every spec of a figure sweep: cell → one metrics per seed."""
    return {
        key: [run_experiment(spec).metrics for spec in specs]
        for key, specs in grid.items()
    }


def fig4_grid(
    node_counts: Iterable[int] = PAPER_NODE_COUNTS,
    rates: Iterable[float] = PAPER_DATA_RATES,
    seeds: Iterable[int] = range(PAPER_SEED_COUNT),
) -> Dict[Tuple[int, float], List[ExperimentSpec]]:
    """The Fig. 4 sweep: ``(node count, rate)`` → one spec per seed.

    Cells come node-count-major, in argument order.
    """
    rates = tuple(rates)
    return _grid(
        {
            (nodes, rate): partial(data_amount_scenario, nodes, rate)
            for nodes in node_counts
            for rate in rates
        },
        seeds,
    )


def fig5_grid(
    node_counts: Iterable[int] = PAPER_NODE_COUNTS,
    seeds: Iterable[int] = range(PAPER_SEED_COUNT),
) -> Dict[Tuple[str, int], List[ExperimentSpec]]:
    """The Fig. 5 sweep: ``(solver, node count)`` → one spec per seed.

    Cells come node-count-major, each count's :data:`PLACEMENT_ARMS` in
    order.
    """
    return _grid(
        {
            (solver, nodes): partial(placement_scenario, nodes, solver)
            for nodes in node_counts
            for solver in PLACEMENT_ARMS
        },
        seeds,
    )


def cell_average(metrics_list: List[RunMetrics]) -> Dict[str, float]:
    """Average the headline scalars over the repeated runs of one cell."""
    count = len(metrics_list)
    return {
        "avg_node_mb": sum(m.average_node_megabytes() for m in metrics_list) / count,
        "gini": sum(m.storage_gini() for m in metrics_list) / count,
        "delivery": sum(m.average_delivery_time() for m in metrics_list) / count,
        "failed": sum(m.failed_requests for m in metrics_list),
        "served": sum(len(m.delivery_times) for m in metrics_list),
        "height": sum(m.chain_height() for m in metrics_list) / count,
        "interval": sum(m.mean_block_interval() for m in metrics_list) / count,
    }


# -- Fig. 6 battery sessions ---------------------------------------------------------


def mining_session(
    consensus: str,
    minutes: float,
    seed: int = 0,
    difficulty: int = PAPER_POW_DIFFICULTY,
) -> List[Tuple[int, float, float]]:
    """One Fig. 6 session on a fully charged handset.

    ``consensus`` is ``"pow"`` (a sampled difficulty-``difficulty`` miner
    drawing from ``default_rng(seed)``) or ``"pos"`` (a lone staker's
    lottery tuned to the same :data:`FIG6_BLOCK_TIME`, its hash chain
    seeded by ``seed``).  Blocks are mined until ``minutes`` have elapsed
    or the battery is flat; the series holds ``(blocks mined, elapsed
    seconds, remaining battery %)`` after each block.
    """
    meter = EnergyMeter()
    if consensus == "pow":
        rng = np.random.default_rng(seed)
        miner = PowMiner(meter, difficulty=difficulty)

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
