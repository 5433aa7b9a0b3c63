"""Storage allocation: which nodes store a data item or block.

Implements Section IV-A/B: for each item, form the UFL instance from the
current chain-derived storage state (FDC) and topology (RDC), solve it with
the configured solver, and return the open facilities as the storing nodes.
The RDC matrix and what Eq. 3's exact decision needs of it are settled
once per topology epoch; a decision forms only Eq. 1's terms.

The allocator is deterministic given the same chain state and topology, so
the miner's placement decision can be reproduced by any validator.  The
``random`` solver is the Fig. 5 baseline: it opens as many replicas as the
optimal solver would have, uniformly at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.facility.costs import fairness_degree_terms, range_distance_costs
from repro.facility.greedy import GreedySolver
from repro.facility.problem import RATIO_BOUND, UFLProblem, UFLSolution, frozen
from repro.facility.random_baseline import solve_random
from repro.obs import runtime as _obs


class _Epoch(NamedTuple):
    """One topology epoch's RDC matrix, what it was built from, and what
    was checked of it once for every placement the epoch makes."""

    #: The hop matrix and ranges the matrix was built from (the hop
    #: matrix read-only, held as :func:`~repro.facility.problem.frozen`).
    hops: np.ndarray
    ranges: Tuple[float, ...]
    #: Eq. 2 over every node pair, read-only: integers and ``inf``.
    connection: np.ndarray
    #: The largest sum of a row's finite entries.
    row_sum: int
    #: ``isfinite(connection)``, or ``None`` when every pair is reachable.
    reach: Optional[np.ndarray]


#: Before the first placement: the empty hop matrix compares unequal to
#: any a placement can be asked on.
_NO_EPOCH = _Epoch(np.empty((0, 0)), (), np.empty((0, 0)), 0, None)


@dataclass(frozen=True)
class AllocationDecision:
    """The outcome of placing one item."""

    storing_nodes: Tuple[int, ...]
    #: Eq. 3's cost of the placement: ``inf`` for a fallback, else
    #: computed only while obs records it (``None`` otherwise).
    total_cost: Optional[float]
    replica_count: int


class AllocationEngine:
    """Solves the per-item placement problem against live network state.

    What only the topology fixes is done once per epoch (:meth:`_epoch_for`):
    the RDC matrix, its integrality, its largest row sum (with the
    largest capacity seen, Eq. 3's exactness bound) and which pairs reach
    each other.  A decision then forms Eq. 1's numerators and
    denominators as arrays and asks :meth:`GreedySolver.open_set` for the
    open set; the assignment and the cost are computed only for obs.
    """

    def __init__(self, config: SystemConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Count of placements that needed the least-loaded fallback.
        self.fallback_placements = 0
        #: Solver caches, shared across this cluster's solves.
        self._solver = GreedySolver()
        self._epoch = _NO_EPOCH
        #: The largest capacity the epoch's exactness bound was checked for.
        self._exact_capacity = -1.0

    def _epoch_for(self, hop_matrix: np.ndarray, ranges: Sequence[float]) -> _Epoch:
        """The epoch of ``hop_matrix`` and ``ranges``: the held one while
        both compare equal to what it was built from, else a new one."""
        epoch = self._epoch
        range_key = tuple(ranges)
        if range_key == epoch.ranges and (
            hop_matrix is epoch.hops or np.array_equal(hop_matrix, epoch.hops)
        ):
            return epoch
        connection = range_distance_costs(hop_matrix, range_key)
        if not np.array_equal(np.floor(connection), connection):
            raise ValueError("connection costs must be integers or inf")
        connection.flags.writeable = False
        finite = np.isfinite(connection)
        epoch = self._epoch = _Epoch(
            frozen(np.asarray(hop_matrix)),
            range_key,
            connection,
            int(np.sum(connection, axis=1, where=finite).max()),
            None if finite.all() else finite,
        )
        self._exact_capacity = -1.0
        return epoch

    def _check_exact(self, epoch: _Epoch, capacity: float) -> None:
        """Raise unless Eq. 3 is decided exactly for every load of nodes
        of at most ``capacity`` slots: a star's ratio ``P/Q`` has ``P <=
        A·W_tol + W_tol·(row sum)`` and ``Q <= W_tol·clients``, and
        ``max P · max Q`` must stay below ``RATIO_BOUND`` (the greedy's
        module docstring)."""
        weight = self.config.fdc_weight
        if weight < 0:
            raise ValueError("FDC weight must be non-negative")
        scale = max(int(capacity), 1)
        largest = int(weight * capacity) + scale * epoch.row_sum
        if largest * scale * epoch.connection.shape[1] >= RATIO_BOUND:
            raise ValueError(
                "costs too large to compare exactly: ratio numerator "
                f"{largest} times denominator {scale * epoch.connection.shape[1]} "
                "is not below 2**52"
            )
        self._exact_capacity = capacity

    def _solve(self, problem: UFLProblem) -> UFLSolution:
        if self.config.placement_solver == "greedy":
            return self._solver.solve(problem)
        # "random", the only other value the config admits: random
        # placement with the replica count the optimal (greedy) solution
        # would have chosen, unless the config fixes one.
        replicas = (
            self.config.random_replicas
            or self._solver.solve(problem).replica_count
        )
        replicas = min(replicas, len(problem.openable_facilities()))
        return solve_random(problem, replicas, self._rng)

    def place_item(
        self,
        used_slots: Sequence[float],
        total_slots: Sequence[float],
        hop_matrix: np.ndarray,
        ranges: Sequence[float],
        exclude_nodes: Optional[Sequence[int]] = None,
    ) -> AllocationDecision:
        """Choose the storing nodes for one data item or block.

        Falls back to the least-loaded reachable node when the UFL instance
        is infeasible (e.g. nearly all nodes full) — the item still needs at
        least one replica.  Raises :class:`AllocationError` only when not a
        single node has a free slot.
        """
        with _obs.span(
            "facility.place_item", "facility", solver=self.config.placement_solver
        ) as obs_span:
            return self._place_item(
                used_slots, total_slots, hop_matrix, ranges, exclude_nodes, obs_span
            )

    def _place_item(
        self, used_slots, total_slots, hop_matrix, ranges, exclude_nodes, obs_span
    ) -> AllocationDecision:
        epoch = self._epoch_for(hop_matrix, ranges)
        # Eq. 1 as numerator A·W over denominator W_tol − W, 0 where the
        # node cannot store: full, or excluded.
        used, remaining = fairness_degree_terms(used_slots, total_slots)
        if used.shape[0] != epoch.connection.shape[0]:
            raise ValueError("storage vectors must match hop matrix size")
        if (used % 1).any() or (remaining % 1).any():
            raise ValueError("opening costs must be ratios of finite integers")
        capacity = float((used + remaining).max())
        if capacity > self._exact_capacity:
            self._check_exact(epoch, capacity)
        if exclude_nodes:
            remaining[list(exclude_nodes)] = 0.0
        num = self.config.fdc_weight * used
        openable = remaining > 0
        if (
            openable.any()
            if epoch.reach is None
            else epoch.reach[openable].any(axis=0).all()
        ):
            return self._decide(epoch, num, remaining, obs_span)
        # Fallback: any node with capacity, preferring the least loaded.
        excluded = set(exclude_nodes or ())
        candidates = [
            (used / total, node)
            for node, (used, total) in enumerate(zip(used_slots, total_slots))
            if used < total and node not in excluded
        ]
        if not candidates:
            raise AllocationError("no node has a free storage slot")
        self.fallback_placements += 1
        _obs.add("facility.fallback_placements")
        _, chosen = min(candidates)
        return AllocationDecision(
            storing_nodes=(chosen,), total_cost=math.inf, replica_count=1
        )

    def _decide(
        self, epoch: _Epoch, num: np.ndarray, den: np.ndarray, obs_span
    ) -> AllocationDecision:
        """The open set of a feasible instance (every client reaches a
        node that can store)."""
        observed = _obs.is_enabled()
        if self.config.placement_solver == "greedy" and not observed:
            opened = sorted(self._solver.open_set(epoch.connection, num, den))
            return AllocationDecision(tuple(opened), None, len(opened))
        problem = UFLProblem(num, den, epoch.connection)
        solution = self._solve(problem)
        if not observed:
            return AllocationDecision(
                solution.open_facilities, None, solution.replica_count
            )
        decision = AllocationDecision(
            storing_nodes=solution.open_facilities,
            total_cost=solution.total_cost(problem),
            replica_count=solution.replica_count,
        )
        obs_span.set(replicas=decision.replica_count, cost=decision.total_cost)
        _obs.add("facility.placements")
        _obs.observe("facility.replicas_per_item", decision.replica_count)
        if math.isfinite(decision.total_cost):
            _obs.observe("facility.place_cost", decision.total_cost)
        return decision
