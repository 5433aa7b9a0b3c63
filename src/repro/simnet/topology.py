"""Geometric network topology for pervasive edge environments.

The paper's simulation places nodes uniformly in a 300 m × 300 m field with a
70 m 802.11n communication range (Section VI).  Two nodes are neighbours when
their Euclidean distance is within the radio range (a unit-disk graph), and
multi-hop paths are shortest hop-count paths — the paper's chosen "distance"
for the Range-Distance Cost (Eq. 2).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import runtime as _obs

#: Field side length in metres (paper Section VI).
DEFAULT_FIELD_SIZE = 300.0

#: Radio communication range in metres (typical 802.11n, paper Section VI).
DEFAULT_COMM_RANGE = 70.0

#: Hop count reported for unreachable pairs.
UNREACHABLE = -1


@dataclass(frozen=True)
class Position:
    """A point in the 2-D field."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def random_positions(
    count: int,
    rng: np.random.Generator,
    field_size: float = DEFAULT_FIELD_SIZE,
) -> List[Position]:
    """Sample ``count`` uniform positions in a ``field_size`` square."""
    if count < 0:
        raise ValueError("count must be non-negative")
    coords = rng.uniform(0.0, field_size, size=(count, 2))
    return [Position(float(x), float(y)) for x, y in coords]


def connected_random_positions(
    count: int,
    rng: np.random.Generator,
    field_size: float = DEFAULT_FIELD_SIZE,
    comm_range: float = DEFAULT_COMM_RANGE,
    max_attempts: int = 30,
) -> List[Position]:
    """Sample positions for a *connected* unit-disk graph.

    The paper's scenarios implicitly assume a connected network (every node
    eventually receives every block).  For dense settings a plain uniform
    sample is usually connected, so we rejection-sample first; for sparse
    settings (e.g. 10 nodes in 300×300 m with 70 m range the uniform graph
    is almost never connected) we fall back to sequential attachment: each
    node is sampled uniformly but resampled until it lands within radio
    range of an already-placed node.  That guarantees connectivity while
    keeping placements spread over the field.
    """
    for _ in range(max_attempts):
        positions = random_positions(count, rng, field_size)
        topology = Topology(positions, comm_range=comm_range)
        if topology.is_connected():
            return positions
    return _sequential_connected_positions(count, rng, field_size, comm_range)


def _sequential_connected_positions(
    count: int,
    rng: np.random.Generator,
    field_size: float,
    comm_range: float,
    max_resamples: int = 10_000,
) -> List[Position]:
    """Attachment sampling: every new node lands in range of a placed one."""
    if count == 0:
        return []
    positions = [Position(*map(float, rng.uniform(0.0, field_size, size=2)))]
    while len(positions) < count:
        for attempt in range(max_resamples):
            candidate = Position(*map(float, rng.uniform(0.0, field_size, size=2)))
            if any(candidate.distance_to(p) <= comm_range for p in positions):
                positions.append(candidate)
                break
        else:
            raise RuntimeError(
                "sequential placement failed; field too large for the radio range"
            )
    return positions


class _BfsTree:
    """One endpoint's BFS over the adjacency, grown a level at a time.

    ``order`` lists the nodes in discovery order — level ``k`` is
    ``order[starts[k]:starts[k + 1]]`` — and ``parent`` holds each
    discovered node's first discoverer (the root its own, ``-1``
    undiscovered): exactly the levels and parents one side of the
    bidirectional search builds, because that side's expansion never
    looks at the other.  ``hops`` is the root's row of the hop matrix.
    """

    __slots__ = ("hops", "order", "starts", "parent")

    def __init__(self, root: int, hops: memoryview, node_count: int):
        self.hops = hops
        self.order = array("i", (root,))
        self.starts = [0, 1]
        self.parent = array("i", (-1,)) * node_count
        self.parent[root] = root

    def size(self, depth: int, adj: List[Dict[int, None]]) -> int:
        """How many nodes sit at ``depth``, expanding the levels above it
        first if no query has needed them yet."""
        order, starts, parent = self.order, self.starts, self.parent
        while len(starts) <= depth + 1:
            for index in range(starts[-2], starts[-1]):
                node = order[index]
                for neighbor in adj[node]:
                    if parent[neighbor] < 0:
                        parent[neighbor] = node
                        order.append(neighbor)
            starts.append(len(order))
        return starts[depth + 1] - starts[depth]

    def level(self, depth: int) -> array:
        """Level ``depth`` in discovery order (sized already)."""
        return self.order[self.starts[depth] : self.starts[depth + 1]]

    def path_to(self, node: int) -> List[int]:
        """Tree path ``node`` → root (``node`` discovered already)."""
        path = [node]
        parent = self.parent
        while parent[node] != node:
            node = parent[node]
            path.append(node)
        return path


class BroadcastPlan:
    """One source's dissemination over its BFS spanning tree, this epoch.

    The tree is the breadth-first search from ``source`` that visits each
    node's neighbours in ascending id order, a node's parent being its
    first discoverer.  ``levels[k]`` holds the nodes at depth ``k + 1``
    in discovery order and ``reached`` all of them, level after level;
    ``parent[v]`` is node v's tree parent (the source's is itself, ``-1``
    where the broadcast does not reach); ``senders[i]`` forwards to
    ``edges[i]`` tree children.  Kept per source for an epoch, so it is
    held in flat arrays.
    """

    __slots__ = ("reached", "levels", "parent", "senders", "edges")

    def __init__(self, source: int, neighbors: List[List[int]]):
        """Plan from ``source`` over ``neighbors`` (each node's, ascending)."""
        parent = array("i", (-1,)) * len(neighbors)
        parent[source] = source
        levels: List[List[int]] = []
        senders = array("i")
        edges = array("i")
        frontier = [source]
        while frontier:
            level: List[int] = []
            for node in frontier:
                before = len(level)
                for neighbor in neighbors[node]:
                    if parent[neighbor] < 0:
                        parent[neighbor] = node
                        level.append(neighbor)
                if len(level) > before:
                    senders.append(node)
                    edges.append(len(level) - before)
            if level:
                levels.append(level)
            frontier = level
        self.reached = [node for level in levels for node in level]
        self.levels = levels
        self.parent = parent
        self.senders = senders
        self.edges = edges


class Topology:
    """Unit-disk connectivity graph with cached hop-count distances.

    Node identifiers are the integer indices of the ``positions`` sequence.
    Rebuild (or call :meth:`update_positions`) whenever mobility moves nodes;
    hop-count tables are recomputed lazily.

    Edge membership is defined by ``Position.distance_to(other) <=
    comm_range`` — the scalar ``math.hypot`` comparison.  The vectorised
    construction path reproduces that definition bit-for-bit: squared
    distances classify every pair whose squared distance is outside a
    ±1e-9 relative band around ``comm_range²`` (float64 squaring and
    ``math.hypot`` both carry ≲1 ulp ≈ 1e-15 relative error, six orders
    of magnitude inside the band), and the rare boundary pairs fall back
    to the scalar ``math.hypot`` check itself.
    """

    def __init__(
        self,
        positions: Sequence[Position],
        comm_range: float = DEFAULT_COMM_RANGE,
    ):
        if comm_range <= 0:
            raise ValueError("communication range must be positive")
        self.comm_range = comm_range
        self._positions: List[Position] = list(positions)
        #: One insertion-ordered neighbour dict per node.  The order is part
        #: of the routing contract (see :meth:`shortest_path`); only
        #: :meth:`_set_edges`, :meth:`remove_edges` and :meth:`add_edges`
        #: write to it.
        self._adj: List[Dict[int, None]] = []
        self._hop_cache: Optional[np.ndarray] = None
        #: Per routed endpoint, its BFS levels and parents this epoch.
        self._trees: Dict[int, _BfsTree] = {}
        #: Per broadcasting source, its dissemination plan this epoch, and
        #: the ascending neighbour lists the plans are built from.
        self._plans: Dict[int, BroadcastPlan] = {}
        self._sorted_adj: Optional[List[List[int]]] = None
        #: Identity of the current position-derived (full) edge set; lets a
        #: mobility epoch that didn't change connectivity keep every cache.
        self._edge_key: Optional[bytes] = None
        #: Offline nodes: they keep their index and position but no edge,
        #: across every rebuild, until :meth:`restore_node`.
        self._offline: Set[int] = set()
        self._set_edges(self._full_edges(self._coords()))

    # -- construction --------------------------------------------------------

    def _full_edges(self, coords: np.ndarray) -> np.ndarray:
        """All unit-disk edges for ``coords``, as an (m, 2) int array in
        row-major ``i < j`` order — the insertion order of the original
        nested-loop construction (preserved so adjacency order, and with
        it every BFS tie-break, stays identical)."""
        n = coords.shape[0]
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        rows, cols = np.triu_indices(n, k=1)
        dx = coords[rows, 0] - coords[cols, 0]
        dy = coords[rows, 1] - coords[cols, 1]
        d2 = dx * dx + dy * dy
        r2 = self.comm_range * self.comm_range
        band = r2 * 1e-9
        within = d2 <= r2 + band
        boundary = within & (d2 > r2 - band)
        if boundary.any():
            # Within a whisker of the range: defer to the scalar definition.
            for k in np.nonzero(boundary)[0]:
                i, j = int(rows[k]), int(cols[k])
                within[k] = (
                    self._positions[i].distance_to(self._positions[j])
                    <= self.comm_range
                )
        return np.column_stack((rows[within], cols[within]))

    def _coords(self) -> np.ndarray:
        return np.array([(p.x, p.y) for p in self._positions], dtype=np.float64)

    def _set_edges(self, edges: np.ndarray) -> None:
        """Replace the graph by the full unit-disk edge set ``edges``,
        less every edge of an offline node."""
        self._edge_key = edges.tobytes()
        if self._offline:
            edges = edges[~np.isin(edges, list(self._offline)).any(axis=1)]
        adj: List[Dict[int, None]] = [{} for _ in self._positions]
        for i, j in edges.tolist():
            adj[i][j] = None
            adj[j][i] = None
        self._adj = adj
        self._invalidate()

    def _invalidate(self) -> None:
        self._hop_cache = None
        self._trees.clear()
        self._plans.clear()
        self._sorted_adj = None

    def update_positions(self, positions: Sequence[Position]) -> None:
        """Replace all node positions (mobility epoch).

        Caches (hop matrix, route trees, the graph itself) are kept when
        no node is offline and the move didn't change the unit-disk edge
        set — the common case for the paper's 30 m wander inside a 70 m
        radio range — and rebuilt otherwise.  Offline nodes stay unlinked.
        """
        if len(positions) != len(self._positions):
            raise ValueError("node count cannot change via update_positions")
        self._positions = list(positions)
        edges = self._full_edges(self._coords())
        if not self._offline and edges.tobytes() == self._edge_key:
            _obs.add("routing.cache_hit")
            return
        _obs.add("routing.recompute")
        self._set_edges(edges)

    def remove_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Delete the undirected edges ``pairs``; every one must exist."""
        self._invalidate()
        for u, v in pairs:
            del self._adj[u][v]
            del self._adj[v][u]

    def add_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Insert the undirected edges ``pairs``, each at the end of both
        endpoints' adjacency; an edge already present keeps its place."""
        self._invalidate()
        for u, v in pairs:
            self._adj[u][v] = None
            self._adj[v][u] = None

    def remove_node(self, node: int) -> None:
        """Take a node offline (it keeps its index but loses all edges)."""
        if not (0 <= node < len(self._positions)):
            raise KeyError(f"unknown node {node}")
        self._offline.add(node)
        edges = [(node, other) for other in self._adj[node]]
        if not edges:
            # Nothing to strip — the graph (and every cache) is unchanged.
            _obs.add("routing.cache_hit")
            return
        self.remove_edges(edges)

    def restore_node(self, node: int) -> None:
        """Bring a node back online, reconnecting edges from its position
        to every node in range — an offline one too, until the next
        rebuild unlinks it (the recorded churn run depends on this)."""
        if not (0 <= node < len(self._positions)):
            raise KeyError(f"unknown node {node}")
        self._offline.discard(node)
        here = self._positions[node]
        edges = [
            (node, other)
            for other, there in enumerate(self._positions)
            if other != node and here.distance_to(there) <= self.comm_range
        ]
        if edges:
            self.add_edges(edges)

    # -- queries --------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._positions)

    def position(self, node: int) -> Position:
        return self._positions[node]

    @property
    def positions(self) -> List[Position]:
        return list(self._positions)

    def edges(self) -> List[Tuple[int, int]]:
        """Every edge once as ``(u, v)`` with ``u < v``: node-major, each
        node's neighbours in adjacency order."""
        return [(u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if u < v]

    def neighbors(self, node: int) -> List[int]:
        """Direct radio neighbours of ``node``, sorted for determinism."""
        return sorted(self._adj[node])

    def _reach(self, source: int, within: Optional[Set[int]] = None) -> Set[int]:
        """Nodes a BFS from ``source`` reaches, staying inside ``within``
        when given."""
        seen = {source}
        frontier = [source]
        while frontier:
            level, frontier = frontier, []
            for node in level:
                for neighbor in self._adj[node]:
                    if neighbor not in seen and (within is None or neighbor in within):
                        seen.add(neighbor)
                        frontier.append(neighbor)
        return seen

    def is_connected(self) -> bool:
        if self.node_count == 0:
            return True
        return len(self._reach(0)) == self.node_count

    def is_connected_subset(self, nodes: Sequence[int]) -> bool:
        """True when the induced subgraph over ``nodes`` is connected."""
        within = set(nodes)
        if len(within) <= 1:
            return True
        return len(self._reach(next(iter(within)), within)) == len(within)

    def _compute_hop_matrix(self) -> np.ndarray:
        """All-pairs BFS hop counts, every source at once, a level a step.

        Row ``v`` of ``frontier`` is a bitset over sources (bit ``s``: ``v``
        is on the frontier from ``s``); the next level of ``v`` is the OR
        of its neighbours' rows, one ``reduceat`` over the CSR adjacency,
        less what each source reached already; each level is unpacked
        into an n×n mask to write it: O((E·⌈n/64⌉ + n²)·diameter).
        """
        n = self.node_count
        matrix = np.full((n, n), UNREACHABLE, dtype=np.int64)
        np.fill_diagonal(matrix, 0)
        degree = np.fromiter(map(len, self._adj), dtype=np.intp, count=n)
        targets = np.array([v for nbrs in self._adj for v in nbrs], dtype=np.intp)
        if targets.size == 0:
            return matrix
        linked = degree > 0
        # Each linked row's neighbours are one contiguous, non-empty run.
        starts = (np.cumsum(degree) - degree)[linked]
        # Little-endian words, so bit s of a row is bit s of its bytes.
        frontier = np.packbits(
            np.eye(n, 64 * -(-n // 64), dtype=bool), axis=1, bitorder="little"
        ).view("<u8")
        reached = frontier.copy()
        spread = np.zeros_like(frontier)
        level = 0
        while True:
            level += 1
            spread[linked] = np.bitwise_or.reduceat(frontier[targets], starts, axis=0)
            np.bitwise_and(spread, ~reached, out=frontier)
            if not frontier.any():
                break
            reached |= frontier
            hit = np.unpackbits(
                frontier.view(np.uint8), axis=1, count=n, bitorder="little"
            ).view(bool)
            # hit[v, s]: source s reaches v at this level; rows are sources.
            matrix[hit.T] = level
        return matrix

    def _hops(self) -> np.ndarray:
        """This epoch's hop matrix, computed on first use — by a route or
        a hop query alike, and counted as ``routing.recompute`` either way."""
        if self._hop_cache is None:
            _obs.add("routing.recompute")
            matrix = self._compute_hop_matrix()
            matrix.flags.writeable = False
            self._hop_cache = matrix
        return self._hop_cache

    def _hop_matrix_cached(self) -> np.ndarray:
        if self._hop_cache is not None:
            _obs.add("routing.cache_hit")
        return self._hops()

    def _known(self, node: int) -> bool:
        return 0 <= node < len(self._adj)

    def hop_count(self, source: int, target: int) -> int:
        """Shortest hop-count between two nodes, or ``UNREACHABLE`` — also
        for a node the topology does not have."""
        if not (self._known(source) and self._known(target)):
            return UNREACHABLE
        if source == target:
            return 0
        return int(self._hop_matrix_cached()[source, target])

    def hop_matrix(self) -> np.ndarray:
        """Dense matrix of hop counts (``UNREACHABLE`` where disconnected).

        Cached per topology epoch and returned read-only; callers treat it
        as a value (the allocation layer converts to float anyway).
        """
        return self._hop_matrix_cached()

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """One shortest path (node list incl. endpoints), or None.

        Among equal-length paths the one returned goes through the first
        meeting node of a bidirectional BFS over insertion-ordered
        adjacency — smaller fringe expanded first, the source's on a tie;
        first discoverer of a node wins — and an unknown node has no path.

        That search is not re-run per call: its outcome follows from the
        hop count ``d`` and each endpoint's BFS tree, kept per epoch.  Say
        the source side has expanded levels ``< i`` and the target side
        ``< j``.  The two balls are disjoint (a shared node would have
        been met), so ``d > i + j``, and an expansion can meet only once
        ``d = i + j + 1``; then it must.  Replaying the fringe-size rule on
        the trees' level sizes gives the side that meets.  If it is the
        source side, expanding level ``L_s[i]`` in discovery order meets
        on the first neighbour at hop ``j`` from the target of the first
        node at hop ``j + 1``: ``left`` and ``right``, with ``right``
        discovered from ``left``.  The target side is the mirror image.
        The path is the source tree's path to ``left`` followed by the
        target tree's path from ``right``.
        """
        if not (self._known(source) and self._known(target)):
            return None
        if source == target:
            return [source]
        hops = self._hops()
        distance = int(hops[source, target])
        if distance == UNREACHABLE:
            return None
        adj = self._adj
        forward, reverse = self._tree(source, hops), self._tree(target, hops)
        to_source, to_target = forward.hops, reverse.hops
        i = j = 0
        while True:
            if forward.size(i, adj) <= reverse.size(j, adj):
                if i + j + 1 == distance:
                    left = next(n for n in forward.level(i) if to_target[n] == j + 1)
                    right = next(n for n in adj[left] if to_target[n] == j)
                    break
                i += 1
            else:
                if i + j + 1 == distance:
                    right = next(n for n in reverse.level(j) if to_source[n] == i + 1)
                    left = next(n for n in adj[right] if to_source[n] == i)
                    break
                j += 1
        path = forward.path_to(left)
        path.reverse()
        path.extend(reverse.path_to(right))
        return path

    def _tree(self, root: int, hops: np.ndarray) -> _BfsTree:
        tree = self._trees.get(root)
        if tree is None:
            tree = _BfsTree(root, memoryview(hops[root]), len(self._adj))
            self._trees[root] = tree
        return tree

    def broadcast_plan(self, source: int) -> BroadcastPlan:
        """The BFS dissemination plan from ``source`` (:class:`BroadcastPlan`),
        built on first use and kept until the graph changes."""
        plan = self._plans.get(source)
        if plan is None:
            if self._sorted_adj is None:
                self._sorted_adj = [sorted(nbrs) for nbrs in self._adj]
            plan = self._plans[source] = BroadcastPlan(source, self._sorted_adj)
        return plan

    def euclidean_distance(self, source: int, target: int) -> float:
        return self._positions[source].distance_to(self._positions[target])

    def reachable_from(self, source: int) -> List[int]:
        """All nodes reachable from ``source`` (including itself), sorted."""
        return sorted(self._reach(source))

    def components(self) -> List[List[int]]:
        """Connected components, each sorted, largest first."""
        seen: Set[int] = set()
        comps = []
        for node in range(self.node_count):
            if node not in seen:
                component = self._reach(node)
                seen |= component
                comps.append(sorted(component))
        return sorted(comps, key=lambda c: (-len(c), c))
