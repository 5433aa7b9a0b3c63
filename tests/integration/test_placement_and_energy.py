"""Integration tests for the paper's two comparative claims:

* Fig. 5 — optimal placement delivers data faster than replica-matched
  random placement at similar message overhead.
* Fig. 6 — PoS drains far less battery than PoW at the same block rate.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.pos import compute_amendment, compute_hit, mining_delay
from repro.core.pow import PowMiner
from repro.energy.meter import EnergyMeter
from repro.sim.runner import ExperimentSpec, run_experiment
from repro.sim.scenarios import BENCH_DURATION_MINUTES, placement_scenario


@pytest.fixture(scope="module")
def placement_pair():
    """Matched (greedy, random) 60-minute runs over two seeds at 20 nodes."""
    results = {}
    for solver in ("greedy", "random"):
        results[solver] = [
            run_experiment(
                dataclasses.replace(
                    placement_scenario(20, solver, seed=seed),
                    duration_minutes=BENCH_DURATION_MINUTES,
                )
            ).metrics
            for seed in (3, 4)
        ]
    return results


class TestPlacementComparison:
    def test_optimal_faster_on_average(self, placement_pair):
        greedy = np.mean([m.average_delivery_time() for m in placement_pair["greedy"]])
        random_ = np.mean([m.average_delivery_time() for m in placement_pair["random"]])
        assert greedy < random_

    def test_overhead_similar(self, placement_pair):
        # Fig. 5(b): "the message overhead is almost the same".
        greedy = np.mean([m.average_node_megabytes() for m in placement_pair["greedy"]])
        random_ = np.mean([m.average_node_megabytes() for m in placement_pair["random"]])
        assert greedy == pytest.approx(random_, rel=0.35)

    def test_no_failed_requests_either_arm(self, placement_pair):
        for arm in placement_pair.values():
            for metrics in arm:
                assert metrics.failed_requests == 0


class TestEnergyComparison:
    def test_pos_cheaper_per_block_by_papers_factor(self):
        """PoS uses ~64 % less energy per block at the paper's settings."""
        rng = np.random.default_rng(0)
        pow_meter = EnergyMeter()
        miner = PowMiner(pow_meter, difficulty=4)
        for _ in range(50):
            miner.mine_block(rng)
        pow_per_block = pow_meter.total_consumed() / 50

        pos_meter = EnergyMeter()
        # PoS at the same 25 s average block time: bill the polling seconds.
        t0 = 25.0
        b = compute_amendment(2**64, 1, t0, 1.0)
        total_seconds = 0.0
        for i in range(50):
            delay = mining_delay(compute_hit(f"h{i}", "acct", 2**64), 1.0, 1.0, b)
            total_seconds += delay
        pos_meter.charge_pos_ticks(total_seconds)
        pos_per_block = pos_meter.total_consumed() / 50

        saving = 1.0 - pos_per_block / pow_per_block
        assert saving == pytest.approx(0.64, abs=0.12)

    def test_pow_exponential_in_difficulty(self):
        rng = np.random.default_rng(1)
        means = []
        for difficulty in (2, 3, 4):
            meter = EnergyMeter()
            miner = PowMiner(meter, difficulty=difficulty)
            for _ in range(200):
                miner.mine_block(rng)
            means.append(meter.total_consumed() / 200)
        # Each extra hex digit multiplies the work ≈16×.
        assert means[1] / means[0] == pytest.approx(16.0, rel=0.5)
        assert means[2] / means[1] == pytest.approx(16.0, rel=0.5)

    def test_full_network_pos_energy_accounted(self):
        config = SystemConfig(expected_block_interval=20.0, data_items_per_minute=0.0)
        from repro.sim.cluster import build_cluster

        cluster = build_cluster(6, config, seed=5, with_energy_meters=True)
        cluster.start()
        cluster.engine.run_until(600.0)
        drained = [
            node.meter.consumed_by("pos_mining") for node in cluster.nodes.values()
        ]
        assert all(d > 0 for d in drained)
        # Ten minutes of 1.5 W polling ≈ 900 J ± scheduling slack.
        assert max(drained) <= 1.5 * 700
