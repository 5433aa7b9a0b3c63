"""Unit tests for fault injection."""

import numpy as np
import pytest

from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.faults import ChurnEvent, ChurnInjector, PartitionInjector
from repro.simnet.topology import (
    UNREACHABLE,
    Position,
    Topology,
    connected_random_positions,
)
from repro.simnet.transport import Network


@pytest.fixture
def net():
    engine = EventEngine(seed=9)
    positions = [Position(50.0 * i, 0.0) for i in range(4)]
    topology = Topology(positions, comm_range=70.0)
    network = Network(engine, topology, ChannelModel(bandwidth=None))
    for n in range(4):
        network.register(n, lambda *a: None)
    return engine, network


class TestChurnEvent:
    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(node=0, down_at=5.0, up_at=5.0)


class TestChurnInjector:
    def test_down_then_up(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        injector.plan(ChurnEvent(node=1, down_at=1.0, up_at=3.0))
        engine.run_until(2.0)
        assert not network.is_online(1)
        engine.run_until(4.0)
        assert network.is_online(1)

    def test_callbacks_fire(self, net):
        engine, network = net
        downs, ups = [], []
        injector = ChurnInjector(engine, network, on_down=downs.append, on_up=ups.append)
        injector.plan(ChurnEvent(node=2, down_at=1.0, up_at=2.0))
        engine.run_until(5.0)
        assert downs == [2] and ups == [2]

    def test_plan_random_windows_within_horizon(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        events = injector.plan_random(
            node_ids=[0, 1], horizon=100.0, mean_downtime=5.0, events_per_node=3
        )
        assert len(events) > 0
        for event in events:
            assert 0 <= event.down_at <= 100.0
            assert event.up_at > event.down_at

    def test_plan_random_no_overlap_per_node(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        events = injector.plan_random(
            node_ids=[0], horizon=50.0, mean_downtime=20.0, events_per_node=5
        )
        windows = sorted((e.down_at, e.up_at) for e in events)
        for (_, up_a), (down_b, _) in zip(windows, windows[1:]):
            assert down_b >= up_a

    def test_planned_events_recorded(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        injector.plan(ChurnEvent(node=0, down_at=1.0, up_at=2.0))
        assert len(injector.planned_events) == 1


class TestPartitionInjector:
    def test_partition_blocks_cross_traffic(self, net):
        engine, network = net
        injector = PartitionInjector(network)
        removed = injector.partition([0, 1], [2, 3])
        assert removed == 1  # only edge (1,2) crosses
        assert not network.send(0, 3, "x", 1, "t").delivered
        assert network.send(0, 1, "x", 1, "t").delivered

    def test_heal_restores(self, net):
        engine, network = net
        injector = PartitionInjector(network)
        injector.partition([0, 1], [2, 3])
        injector.heal()
        assert network.send(0, 3, "x", 1, "t").delivered
        assert not injector.active

    def test_double_partition_rejected(self, net):
        _, network = net
        injector = PartitionInjector(network)
        injector.partition([0], [3])
        with pytest.raises(RuntimeError):
            injector.partition([0], [2])

    def test_overlapping_groups_rejected(self, net):
        _, network = net
        injector = PartitionInjector(network)
        with pytest.raises(ValueError):
            injector.partition([0, 1], [1, 2])

    def test_heal_without_partition_is_noop(self, net):
        _, network = net
        PartitionInjector(network).heal()


def _line_split():
    positions = [Position(50.0 * i, 0.0) for i in range(6)]
    return Topology(positions, comm_range=70.0), [0, 1, 2], [3, 4, 5]


def _disk_split():
    positions = connected_random_positions(30, np.random.default_rng(3))
    west = [n for n, p in enumerate(positions) if p.x < 150.0]
    east = [n for n, p in enumerate(positions) if p.x >= 150.0]
    return Topology(positions), west, east


def _injector_for(topology):
    network = Network(EventEngine(seed=9), topology, ChannelModel(bandwidth=None))
    return PartitionInjector(network)


class TestPartitionRouting:
    """The hop matrix, ``hop_count`` and ``shortest_path`` answer from one
    graph: a partition that arrives after the matrix was cached shows in
    all three, and ``heal`` puts every answer back."""

    @pytest.mark.parametrize("build", [_line_split, _disk_split])
    def test_routing_queries_agree_across_partition_and_heal(self, build):
        topology, group_a, group_b = build()
        injector = _injector_for(topology)
        nodes = range(topology.node_count)
        side = {n: 0 for n in group_a} | {n: 1 for n in group_b}
        assert len(side) == topology.node_count

        def assert_hops_match_paths():
            for s in nodes:
                for t in nodes:
                    path = topology.shortest_path(s, t)
                    hops = UNREACHABLE if path is None else len(path) - 1
                    assert topology.hop_count(s, t) == hops
                    assert topology.hop_matrix()[s, t] == hops
                    if path is not None:
                        assert all(
                            b in topology.neighbors(a) for a, b in zip(path, path[1:])
                        )

        hops_before = topology.hop_matrix().copy()  # the matrix is now cached
        assert_hops_match_paths()
        edges_before = topology.edges()
        crossing = [(u, v) for u, v in edges_before if side[u] != side[v]]
        kept = [edge for edge in edges_before if edge not in crossing]
        assert crossing and kept

        assert injector.partition(group_a, group_b) == len(crossing)
        assert topology.edges() == kept
        for s in nodes:
            for t in nodes:
                if side[s] != side[t]:
                    assert topology.hop_count(s, t) == UNREACHABLE
                    assert topology.hop_matrix()[s, t] == UNREACHABLE
                    assert topology.shortest_path(s, t) is None
        assert_hops_match_paths()

        injector.heal()
        assert (topology.hop_matrix() == hops_before).all()
        assert_hops_match_paths()
        # Healed edges go to the end of each endpoint's adjacency, in
        # removal order (a stable sort by first endpoint says exactly that).
        assert topology.edges() == sorted(kept + crossing, key=lambda edge: edge[0])

    def test_heal_on_a_line_restores_every_path(self):
        topology, group_a, group_b = _line_split()
        pairs = [(s, t) for s in range(6) for t in range(6)]
        before = [topology.shortest_path(s, t) for s, t in pairs]
        injector = _injector_for(topology)
        injector.partition(group_a, group_b)
        injector.heal()
        assert [topology.shortest_path(s, t) for s, t in pairs] == before


class TestChurnScheduleValidation:
    def test_window_in_the_past_rejected(self, net):
        engine, network = net
        engine.run_until(10.0)
        injector = ChurnInjector(engine, network)
        with pytest.raises(ValueError, match="before the current time"):
            injector.plan(ChurnEvent(node=0, down_at=5.0, up_at=8.0))

    def test_overlapping_windows_same_node_rejected(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        injector.plan(ChurnEvent(node=0, down_at=1.0, up_at=5.0))
        with pytest.raises(ValueError, match="overlaps"):
            injector.plan(ChurnEvent(node=0, down_at=4.0, up_at=7.0))

    def test_overlapping_windows_different_nodes_allowed(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        injector.plan(ChurnEvent(node=0, down_at=1.0, up_at=5.0))
        injector.plan(ChurnEvent(node=1, down_at=4.0, up_at=7.0))
        assert len(injector.planned_events) == 2

    def test_adjacent_windows_same_node_allowed(self, net):
        engine, network = net
        injector = ChurnInjector(engine, network)
        injector.plan(ChurnEvent(node=0, down_at=1.0, up_at=5.0))
        injector.plan(ChurnEvent(node=0, down_at=5.0, up_at=7.0))
        assert len(injector.planned_events) == 2


class TestPartitionSchedule:
    def test_scheduled_split_and_heal(self, net):
        engine, network = net
        injector = PartitionInjector(network, engine)
        injector.schedule([0, 1], [2, 3], at=2.0, heal_at=5.0)
        engine.run_until(1.0)
        assert network.send(0, 3, "x", 1, "t").delivered
        engine.run_until(3.0)
        assert not network.send(0, 3, "x", 1, "t").delivered
        assert injector.active
        engine.run_until(6.0)
        assert network.send(0, 3, "x", 1, "t").delivered
        assert not injector.active

    def test_schedule_requires_engine(self, net):
        _, network = net
        with pytest.raises(ValueError, match="engine"):
            PartitionInjector(network).schedule([0], [3], at=1.0, heal_at=2.0)

    def test_window_in_the_past_rejected(self, net):
        engine, network = net
        engine.run_until(10.0)
        with pytest.raises(ValueError, match="before the current time"):
            PartitionInjector(network, engine).schedule(
                [0], [3], at=5.0, heal_at=8.0
            )

    def test_inverted_window_rejected(self, net):
        engine, network = net
        with pytest.raises(ValueError, match="after the split"):
            PartitionInjector(network, engine).schedule(
                [0], [3], at=5.0, heal_at=5.0
            )

    def test_overlapping_windows_rejected(self, net):
        engine, network = net
        injector = PartitionInjector(network, engine)
        injector.schedule([0], [3], at=1.0, heal_at=5.0)
        with pytest.raises(ValueError, match="overlaps"):
            injector.schedule([0], [2], at=4.0, heal_at=7.0)

    def test_back_to_back_windows_allowed(self, net):
        engine, network = net
        injector = PartitionInjector(network, engine)
        injector.schedule([0, 1], [2, 3], at=1.0, heal_at=3.0)
        injector.schedule([0, 1], [2, 3], at=3.0, heal_at=5.0)
        engine.run_until(4.0)
        assert injector.active
        engine.run_until(6.0)
        assert not injector.active
        assert network.send(0, 3, "x", 1, "t").delivered
