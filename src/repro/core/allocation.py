"""Storage allocation: which nodes store a data item or block.

Implements Section IV-A/B: for each item, build the UFL instance from the
current chain-derived storage state (FDC) and topology (RDC), solve it with
the configured solver, and return the open facilities as the storing nodes.

The allocator is deterministic given the same chain state and topology, so
the miner's placement decision can be reproduced by any validator.  The
``random`` solver is the Fig. 5 baseline: it opens as many replicas as the
optimal solver would have, uniformly at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.facility.costs import range_distance_costs, storage_ufl
from repro.facility.greedy import GreedySolver
from repro.facility.problem import UFLProblem, UFLSolution, frozen
from repro.facility.random_baseline import solve_random
from repro.obs import runtime as _obs

#: ``(hop matrix, ranges, RDC matrix)`` before the first placement: the
#: empty hop matrix compares unequal to any a problem can be built from.
_NO_EPOCH: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
    np.empty((0, 0)),
    np.empty(0),
    np.empty((0, 0)),
)


@dataclass(frozen=True)
class AllocationDecision:
    """The outcome of placing one item."""

    storing_nodes: Tuple[int, ...]
    total_cost: float
    replica_count: int


class AllocationEngine:
    """Solves the per-item placement problem against live network state."""

    def __init__(self, config: SystemConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Count of placements that needed the least-loaded fallback.
        self.fallback_placements = 0
        #: Solver caches, shared across this cluster's solves.
        self._solver = GreedySolver()
        #: The topology epoch's read-only RDC matrix with the hop matrix
        #: and ranges it was built from.
        self._epoch = _NO_EPOCH

    def _connection(
        self, hop_matrix: np.ndarray, ranges: Sequence[float]
    ) -> np.ndarray:
        """The RDC matrix (Eq. 2) for ``hop_matrix`` and ``ranges``, built
        once per topology epoch: reused while both compare equal to what
        it was built from."""
        held_hops, held_ranges, connection = self._epoch
        range_arr = np.asarray(ranges, dtype=float)
        if not (
            np.array_equal(hop_matrix, held_hops)
            and np.array_equal(range_arr, held_ranges)
        ):
            connection = range_distance_costs(hop_matrix, range_arr)
            connection.flags.writeable = False
            hops = frozen(np.asarray(hop_matrix))
            self._epoch = (hops, frozen(range_arr), connection)
        return connection

    def build_problem(
        self,
        used_slots: Sequence[float],
        total_slots: Sequence[float],
        hop_matrix: np.ndarray,
        ranges: Sequence[float],
        exclude_nodes: Optional[Sequence[int]] = None,
    ) -> UFLProblem:
        """The Eq. 3 instance for the current network state."""
        return storage_ufl(
            used_slots,
            total_slots,
            self._connection(hop_matrix, ranges),
            fdc_weight=self.config.fdc_weight,
            exclude_nodes=exclude_nodes,
        )

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
        problem = self.build_problem(
            used_slots, total_slots, hop_matrix, ranges, exclude_nodes
        )
        if problem.is_feasible():
            solution = self._solve(problem)
            decision = AllocationDecision(
                storing_nodes=tuple(solution.open_facilities),
                total_cost=solution.total_cost(problem),
                replica_count=solution.replica_count,
            )
            if _obs.is_enabled():
                obs_span.set(
                    replicas=decision.replica_count, cost=decision.total_cost
                )
                _obs.add("facility.placements")
                _obs.observe("facility.replicas_per_item", decision.replica_count)
                if math.isfinite(decision.total_cost):
                    _obs.observe("facility.place_cost", decision.total_cost)
            return decision
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
