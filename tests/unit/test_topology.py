"""Unit tests for the geometric topology."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.net.router import SocketNetwork
from repro.simnet import topology as topology_module
from repro.simnet.topology import (
    UNREACHABLE,
    Position,
    Topology,
    connected_random_positions,
    random_positions,
)


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_distance_symmetric(self):
        a, b = Position(1, 2), Position(7, -3)
        assert a.distance_to(b) == b.distance_to(a)

    def test_distance_to_self(self):
        p = Position(5, 5)
        assert p.distance_to(p) == 0.0


class TestSampling:
    def test_random_positions_in_field(self, rng):
        for p in random_positions(100, rng, field_size=300.0):
            assert 0 <= p.x <= 300 and 0 <= p.y <= 300

    def test_random_positions_count(self, rng):
        assert len(random_positions(17, rng)) == 17

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            random_positions(-1, rng)

    @pytest.mark.parametrize("count", [2, 5, 10, 30, 50])
    def test_connected_sampling_is_connected(self, rng, count):
        positions = connected_random_positions(count, rng)
        assert Topology(positions).is_connected()

    def test_connected_sampling_deterministic(self):
        a = connected_random_positions(10, np.random.default_rng(3))
        b = connected_random_positions(10, np.random.default_rng(3))
        assert a == b


class TestTopology:
    def test_line_hops(self, line_topology):
        assert line_topology.hop_count(0, 4) == 4
        assert line_topology.hop_count(0, 1) == 1
        assert line_topology.hop_count(2, 2) == 0

    def test_hop_symmetry(self, line_topology):
        assert line_topology.hop_count(0, 3) == line_topology.hop_count(3, 0)

    def test_neighbors_sorted(self, line_topology):
        assert line_topology.neighbors(2) == [1, 3]

    def test_hop_matrix_matches_hop_count(self, small_topology):
        matrix = small_topology.hop_matrix()
        for i in range(small_topology.node_count):
            for j in range(small_topology.node_count):
                assert matrix[i, j] == small_topology.hop_count(i, j)

    def test_hop_matrix_diagonal_zero(self, small_topology):
        assert (np.diag(small_topology.hop_matrix()) == 0).all()

    def test_shortest_path_endpoints(self, line_topology):
        path = line_topology.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert len(path) == 5

    def test_shortest_path_unreachable(self):
        topo = Topology([Position(0, 0), Position(500, 500)], comm_range=70)
        assert topo.shortest_path(0, 1) is None
        assert topo.hop_count(0, 1) == UNREACHABLE

    @pytest.mark.parametrize("stranger", [5, 999, -1])
    def test_unknown_node_is_unreachable(self, line_topology, stranger):
        # -1 used to read node 4's row; an id past the end raised IndexError.
        assert line_topology.hop_count(0, stranger) == UNREACHABLE
        assert line_topology.hop_count(stranger, 0) == UNREACHABLE
        assert line_topology.hop_count(stranger, stranger) == UNREACHABLE
        assert line_topology.shortest_path(0, stranger) is None
        assert line_topology.shortest_path(stranger, stranger) is None
        # The socket fabric models such a peer as one hop, as it does any
        # pair the model graph calls unreachable.
        socket_network = SocketNetwork(0, 5, peers=None, topology=line_topology)
        assert socket_network._model(stranger, 100) == (1, 0.0)

    def test_every_hop_matrix_build_is_counted(self, line_topology, monkeypatch):
        # A route reads the hop matrix, so the first route after a
        # topology change builds it; that build is a recompute like any
        # other, and the next hop query is the first cache hit.
        counted = []
        monkeypatch.setattr(topology_module, "_obs", SimpleNamespace(add=counted.append))
        line_topology.remove_node(2)
        assert line_topology.shortest_path(0, 4) is None
        line_topology.restore_node(2)
        assert line_topology.shortest_path(0, 4) == [0, 1, 2, 3, 4]
        assert line_topology.shortest_path(4, 0) == [4, 3, 2, 1, 0]
        line_topology.hop_matrix()
        assert line_topology.hop_count(0, 4) == 4
        assert counted == [
            "routing.recompute",
            "routing.recompute",
            "routing.cache_hit",
            "routing.cache_hit",
        ]

    def test_remove_node_disconnects(self, line_topology):
        line_topology.remove_node(2)
        assert line_topology.hop_count(0, 4) == UNREACHABLE
        assert line_topology.hop_count(0, 1) == 1

    def test_offline_nodes_stay_unlinked_across_update_positions(self):
        # Node 0 has a neighbour when it goes offline, node 3 none; the
        # move then puts 3 in range of 2.
        positions = [
            Position(0.0, 0.0),
            Position(50.0, 0.0),
            Position(100.0, 0.0),
            Position(290.0, 290.0),
        ]
        topology = Topology(positions)
        assert topology.neighbors(3) == []
        topology.remove_node(0)
        topology.remove_node(3)
        moved = positions[:3] + [Position(140.0, 0.0)]
        for _ in range(2):  # the second epoch moves nothing
            topology.update_positions(moved)
            assert topology.neighbors(0) == [] and topology.neighbors(3) == []
            assert topology.edges() == [(1, 2)]
        topology.restore_node(3)
        assert topology.neighbors(3) == [2]

    def test_edgeless_offline_node_stays_unlinked(self):
        # The only offline node had no edge when it went offline.
        positions = [Position(0.0, 0.0), Position(290.0, 290.0)]
        topology = Topology(positions)
        topology.remove_node(1)
        topology.update_positions([Position(0.0, 0.0), Position(30.0, 0.0)])
        assert topology.edges() == []
        topology.restore_node(1)
        assert topology.edges() == [(0, 1)]

    def test_restore_node_reconnects(self, line_topology):
        line_topology.remove_node(2)
        line_topology.restore_node(2)
        assert line_topology.hop_count(0, 4) == 4

    def test_remove_unknown_node(self, line_topology):
        with pytest.raises(KeyError):
            line_topology.remove_node(99)

    def test_update_positions_invalidates_hops(self, line_topology):
        assert line_topology.hop_count(0, 4) == 4
        # Move node 4 next to node 0.
        new_positions = line_topology.positions
        new_positions[4] = Position(10.0, 0.0)
        line_topology.update_positions(new_positions)
        assert line_topology.hop_count(0, 4) == 1

    def test_update_positions_wrong_count(self, line_topology):
        with pytest.raises(ValueError):
            line_topology.update_positions([Position(0, 0)])

    def test_bfs_tree_depths_match_hops(self, small_topology):
        plan = small_topology.broadcast_plan(0)
        parents = plan.parent
        for node in (0, *plan.reached):
            depth = 0
            cursor = node
            while parents[cursor] != cursor:
                cursor = parents[cursor]
                depth += 1
            assert depth == small_topology.hop_count(0, node)

    def test_bfs_tree_covers_component(self, small_topology):
        plan = small_topology.broadcast_plan(0)
        assert {0, *plan.reached} == set(small_topology.reachable_from(0))
        assert {0, *plan.reached} == {
            node for node, parent in enumerate(plan.parent) if parent >= 0
        }

    def test_components_partition_nodes(self):
        topo = Topology(
            [Position(0, 0), Position(50, 0), Position(500, 500)], comm_range=70
        )
        comps = topo.components()
        assert comps == [[0, 1], [2]]

    def test_is_connected_subset(self, line_topology):
        assert line_topology.is_connected_subset([0, 1, 2])
        assert not line_topology.is_connected_subset([0, 2])
        assert line_topology.is_connected_subset([3])
        assert line_topology.is_connected_subset([])

    def test_euclidean_distance(self, line_topology):
        assert line_topology.euclidean_distance(0, 2) == pytest.approx(100.0)

    def test_invalid_comm_range(self):
        with pytest.raises(ValueError):
            Topology([Position(0, 0)], comm_range=0)
