"""Unit tests for the simulation harness (cluster, runner, scenarios)."""

import dataclasses

import pytest

from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.sim.cluster import build_cluster
from repro.sim.runner import (
    ChurnSpec,
    ExperimentSpec,
    collect_node_metrics,
    run_experiment,
)
from repro.sim.scenarios import (
    BENCH_DURATION_MINUTES,
    PAPER_DATA_RATES,
    PAPER_NODE_COUNTS,
    churn_scenario,
    data_amount_scenario,
    fdc_weight_scenario,
    mining_only_scenario,
    placement_scenario,
)


class TestBuildCluster:
    def test_builds_requested_size(self, fast_config):
        cluster = build_cluster(6, fast_config, seed=1)
        assert len(cluster.nodes) == 6
        assert cluster.node_ids == list(range(6))

    def test_minimum_two_nodes(self, fast_config):
        with pytest.raises(ValueError):
            build_cluster(1, fast_config)

    def test_accounts_deterministic_per_seed(self, fast_config):
        a = build_cluster(4, fast_config, seed=9)
        b = build_cluster(4, fast_config, seed=9)
        assert [a.accounts[i].address for i in range(4)] == [
            b.accounts[i].address for i in range(4)
        ]

    def test_topology_connected(self, fast_config):
        cluster = build_cluster(12, fast_config, seed=2)
        assert cluster.topology.is_connected()

    def test_energy_meters_optional(self, fast_config):
        without = build_cluster(3, fast_config, seed=1)
        with_meters = build_cluster(3, fast_config, seed=1, with_energy_meters=True)
        assert without.nodes[0].meter is None
        assert with_meters.nodes[0].meter is not None

    def test_mobility_epoch_keeps_online_connected(self, fast_config):
        cluster = build_cluster(10, fast_config, seed=3)
        for _ in range(5):
            cluster.advance_mobility_epoch()
            assert cluster.topology.is_connected_subset(
                cluster.network.online_nodes()
            )

    def test_mobility_epoch_respects_offline(self, fast_config):
        cluster = build_cluster(8, fast_config, seed=3)
        cluster.network.set_online(2, False)
        cluster.advance_mobility_epoch()
        assert cluster.topology.neighbors(2) == []

    def test_longest_chain_node(self, fast_config):
        cluster = build_cluster(5, fast_config, seed=4)
        cluster.start()
        cluster.engine.run_until(fast_config.expected_block_interval * 5)
        best = cluster.longest_chain_node()
        assert best.chain.height == max(
            node.chain.height for node in cluster.nodes.values()
        )


class TestExperimentSpec:
    def test_duration_defaults_to_config(self):
        spec = ExperimentSpec(node_count=5, config=PAPER_CONFIG)
        assert spec.duration_seconds == PAPER_CONFIG.simulation_minutes * 60

    def test_duration_override(self):
        spec = ExperimentSpec(node_count=5, config=PAPER_CONFIG, duration_minutes=10)
        assert spec.duration_seconds == 600.0

    def test_churn_spec_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(node_fraction=1.5)


class TestRunExperiment:
    def test_produces_complete_metrics(self, fast_config):
        result = run_experiment(
            ExperimentSpec(node_count=5, config=fast_config, seed=3, duration_minutes=5)
        )
        metrics = result.metrics
        assert metrics.node_count == 5
        assert metrics.duration_seconds == 300.0
        assert metrics.chain_height() > 0
        assert len(metrics.per_node_bytes) == 5
        assert len(metrics.storage_used) == 5
        assert metrics.data_items_produced > 0

    def test_a_subset_of_nodes_is_billed_by_its_own_ids(self):
        result = run_experiment(
            ExperimentSpec(node_count=6, config=PAPER_CONFIG, seed=3, duration_minutes=10)
        )
        full, cluster = result.metrics, result.cluster
        assert full.blocks_mined[4] > 0
        subset = collect_node_metrics(
            [cluster.nodes[4]], full.duration_seconds, cluster.network.trace
        )
        assert subset.per_node_bytes == [full.per_node_bytes[4]]
        assert subset.blocks_mined == {4: full.blocks_mined[4]}

    def test_zero_data_rate_mines_only(self, fast_config):
        from dataclasses import replace

        config = replace(fast_config, data_items_per_minute=0.0)
        result = run_experiment(
            ExperimentSpec(node_count=4, config=config, seed=3, duration_minutes=5)
        )
        assert result.metrics.data_items_produced == 0
        assert result.metrics.chain_height() > 0
        assert result.metrics.delivery_times == []


class TestScenarios:
    def test_paper_sweep_constants(self):
        assert PAPER_NODE_COUNTS == (10, 20, 30, 40, 50)
        assert PAPER_DATA_RATES == (1.0, 2.0, 3.0)

    def test_data_amount_scenario(self):
        spec = data_amount_scenario(30, 2.0, seed=5)
        assert spec.node_count == 30
        assert spec.config.data_items_per_minute == 2.0
        assert spec.seed == 5

    def test_figure_cell_runs_the_papers_500_minutes(self):
        for spec in (data_amount_scenario(30, 2.0), placement_scenario(20, "random")):
            assert spec.duration_minutes is None
            assert spec.duration_seconds == PAPER_CONFIG.simulation_minutes * 60
            assert PAPER_CONFIG.simulation_minutes == 500.0

    def test_sixty_minute_cell_keeps_its_spec(self):
        cell = placement_scenario(20, "greedy", seed=3)
        short = dataclasses.replace(cell, duration_minutes=BENCH_DURATION_MINUTES)
        assert short.duration_seconds == 60.0 * 60
        assert dataclasses.replace(short, duration_minutes=None) == cell

    def test_placement_scenario_arms(self):
        optimal = placement_scenario(20, "greedy")
        baseline = placement_scenario(20, "random")
        assert optimal.config.placement_solver == "greedy"
        assert baseline.config.placement_solver == "random"
        assert optimal.config.data_items_per_minute == 1.0

    def test_churn_scenario_cache_toggle(self):
        on = churn_scenario(recent_cache_enabled=True)
        off = churn_scenario(recent_cache_enabled=False)
        assert on.config.recent_cache_capacity > 0
        assert off.config.recent_cache_capacity == 0
        assert on.churn is not None

    def test_mining_only_scenario(self):
        spec = mining_only_scenario(15, expected_interval=45.0)
        assert spec.config.data_items_per_minute == 0.0
        assert spec.config.expected_block_interval == 45.0
        assert spec.mobility_epoch_minutes == 0.0

    def test_fdc_weight_scenario(self):
        spec = fdc_weight_scenario(50.0)
        assert spec.config.fdc_weight == 50.0
