"""Incremental / warm-started UFL solver for per-item replays.

The simulation solves one UFL instance per placed item, and consecutive
instances are nearly identical: the connection matrix (RDC, Eq. 2) only
changes at mobility epochs or churn events, while the facility costs
(FDC, Eq. 1) change at a handful of nodes — exactly the facilities the
previous solve opened.  :class:`IncrementalUFLSolver` exploits that
structure while staying **bit-identical** to the from-scratch greedy
(:func:`repro.facility.greedy.solve_greedy`), which is what lets a run
with ``placement_solver="incremental"`` produce the same chain and
ledger digests as a ``"greedy"`` run (proven by
``tests/property/test_fastpath_equivalence.py``).

Reuse between solves, all exact:

1. **Solution memo** — instances are fingerprinted (connection-matrix
   token + facility-cost bytes); an exact repeat (validators re-deriving
   a miner's placements, repeated steady states) returns the cached
   solution without solving at all.
2. **Sorted-row reuse** — while the connection matrix is unchanged, each
   facility's stable cost ordering is computed once, as 2-D arrays, and
   never re-sorted: not per solve and not per greedy round.
3. **Warm candidate cache** — between solves, only facilities whose
   opening cost changed have their first-round star recomputed;
   untouched facilities reuse the previous ``(ratio, k)`` verbatim (it
   depends only on the opening cost and the — unchanged — sorted row).

Reuse between the greedy rounds of one solve rests on three facts, each
argued where the code relies on it and checked against the reference by
the differential suite:

* no sort after the epoch build — masking the cached order reproduces
  the reference's sorted cost list (:meth:`IncrementalUFLSolver._stars`);
* removing clients never lowers a facility's ratio, and leaves its star
  bitwise alone unless the star lost a client
  (:meth:`IncrementalUFLSolver._fast_greedy`);
* the ``1e-12`` tie-break scan only ever stops at strict prefix-minimum
  records (:func:`_scan_best`).

Together: a round recomputes only the facilities whose star lost a
client *and* whose old ratio could still make them a record.

A **structural change** (connection matrix shape or contents changed:
mobility epoch, node offline/online, different cluster) drops every
cache and rebuilds it for the epoch that follows; the rebuilt caches
serve that very solve through the same exact path.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open
from repro.obs import runtime as _obs

#: Bound on memoised solutions; evicting only costs a re-solve.
_MEMO_LIMIT = 4096


def _matrix_token(matrix: np.ndarray) -> bytes:
    """Cheap identity token for a float matrix (shape + content hash)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(matrix.shape).encode())
    digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.digest()


def _least_before(values: np.ndarray) -> np.ndarray:
    """Element i: the minimum of ``values[:i]`` (``inf`` for i = 0)."""
    return np.concatenate(([np.inf], np.minimum.accumulate(values)[:-1]))


def _scan_best(ratio: np.ndarray) -> int:
    """Index the reference's sequential ``1e-12`` scan would settle on.

    The reference walks the facilities in index order and replaces its
    running best ``b`` when ``ratio[i] < b - 1e-12``.  ``b`` only falls,
    and a facility ``m`` that was passed over satisfies ``ratio[m] >=
    b - 1e-12``, so a later ``ratio[i] >= ratio[m]`` cannot replace ``b``
    either: the scan only ever updates at strict prefix-minimum records.
    Running the same comparison over those — a handful of indices — is
    the same scan.  Returns ``-1`` when no facility has a finite ratio.
    """
    best_ratio = np.inf
    best = -1
    for index in np.flatnonzero(ratio < _least_before(ratio)).tolist():
        if ratio[index] < best_ratio - 1e-12:
            best_ratio = ratio[index]
            best = index
    return best


class IncrementalUFLSolver:
    """Warm-started greedy UFL, digest-identical to :func:`solve_greedy`.

    One instance is shared by a whole cluster (the allocator owns it):
    every cached artefact is a pure function of the problem instance, so
    sharing across miner and validators only increases the hit rate —
    it can never make two nodes disagree.
    """

    def __init__(self) -> None:
        # -- per-connection-matrix state (layer 2) -------------------------
        self._conn_token: Optional[bytes] = None
        #: Row f: facility f's clients in stable (cost, client-id) order —
        #: the order the greedy's filter-then-stable-argsort produces for
        #: any client subset, since a subset keeps its relative order.
        self._order2d = np.empty((0, 0), dtype=np.intp)
        #: Connection costs in that order; ``inf`` sorts last, so each
        #: row's finite costs form a prefix.
        self._sorted2d = np.empty((0, 0))
        #: Inverse permutation, client-major: ``_pos_t[c, f]`` is where
        #: client c sits in ``_order2d[f]``.
        self._pos_t = np.empty((0, 0), dtype=np.intp)
        # -- warm first-round stars (layer 3) ------------------------------
        #: ``(ratio, kpos)`` per facility with every client unassigned,
        #: valid for ``_last_facility_costs`` on the current matrix (``nan``
        #: there: no star cached yet — it compares unequal to any cost).
        self._round1_ratio = np.empty(0)
        self._round1_kpos = np.empty(0, dtype=np.intp)
        self._last_facility_costs = np.empty(0)
        # -- exact-instance memo (layer 1) ---------------------------------
        self._memo: "OrderedDict[bytes, UFLSolution]" = OrderedDict()
        # -- statistics ----------------------------------------------------
        self.reuse_hits = 0  # memo hits + warm candidates reused
        self.fast_solves = 0  # solves served by the warm greedy path
        self.fallbacks = 0  # structural changes → cache rebuilds

    # ------------------------------------------------------------------ cache plumbing

    def _reset_epoch(self, problem: UFLProblem, token: bytes) -> None:
        """Rebuild the per-connection-matrix caches (structural change)."""
        connection = problem.connection_costs
        self._conn_token = token
        self._order2d = np.argsort(connection, kind="stable", axis=1)
        self._sorted2d = np.take_along_axis(connection, self._order2d, axis=1)
        # The inverse of a permutation is its argsort.
        self._pos_t = np.ascontiguousarray(np.argsort(self._order2d, axis=1).T)
        self._round1_ratio = np.full(problem.num_facilities, np.inf)
        self._round1_kpos = np.zeros(problem.num_facilities, dtype=np.intp)
        self._last_facility_costs = np.full(problem.num_facilities, np.nan)
        self._memo.clear()

    def _memo_get(self, key: bytes) -> Optional[UFLSolution]:
        solution = self._memo.get(key)
        if solution is not None:
            self._memo.move_to_end(key)
        return solution

    def _memo_put(self, key: bytes, solution: UFLSolution) -> None:
        self._memo[key] = solution
        if len(self._memo) > _MEMO_LIMIT:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------ candidates

    def _stars(
        self, rows: np.ndarray, unassigned: np.ndarray, opening: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best star ``(ratio, kpos)`` of each facility in ``rows``.

        ``kpos`` is the position of the star's last client in the
        facility's cached order; the star is the unassigned clients at
        positions ``<= kpos``.  No sort: the unassigned positions of the
        cached order *are* the reference's sorted cost list.  Zeroing the
        others leaves the running sum untouched (``x + 0.0 == x`` and
        ``cumsum`` adds left to right), so prefix sums, counts and ratios
        at unassigned positions are bitwise the reference's; the others
        get ``inf``, as do unreachable clients (the reference drops them;
        they sort after every finite cost), so the first-minimum
        ``argmin`` lands on the same client.  A facility that cannot
        open or reaches no unassigned client gets ratio ``inf``.
        """
        keep = unassigned[self._order2d[rows]]
        prefix = np.cumsum(np.where(keep, self._sorted2d[rows], 0.0), axis=1)
        ratios = np.full(keep.shape, np.inf)
        np.divide(
            opening[:, None] + prefix, np.cumsum(keep, axis=1), out=ratios, where=keep
        )
        return ratios.min(axis=1), np.argmin(ratios, axis=1)

    def _refresh_round1(self, facility_costs: np.ndarray) -> None:
        """Recompute first-round stars only for facilities whose FDC changed."""
        unchanged = facility_costs == self._last_facility_costs
        changed = np.flatnonzero(~unchanged)
        # An unchanged facility that has a star at all is a reuse.
        reused = np.count_nonzero(unchanged & np.isfinite(self._round1_ratio))
        if reused:
            self.reuse_hits += reused
            _obs.add("facility.incremental_reuse", reused)
        if changed.size:
            everyone = np.ones(self._order2d.shape[1], dtype=bool)
            ratio, kpos = self._stars(changed, everyone, facility_costs[changed])
            self._round1_ratio[changed] = ratio
            self._round1_kpos[changed] = kpos
        self._last_facility_costs = facility_costs.copy()

    # ------------------------------------------------------------------ solving

    def solve(self, problem: UFLProblem) -> UFLSolution:
        """Solve ``problem``; the result always equals :func:`solve_greedy`'s."""
        token = _matrix_token(problem.connection_costs)
        if token != self._conn_token:
            # Structural change: topology moved under us.  Rebuild the
            # per-matrix caches (which empties the memo); the warm path is
            # exact from a cold cache too, so it serves this solve as well.
            self.fallbacks += 1
            _obs.add("facility.incremental_fallback")
            self._reset_epoch(problem, token)
        key = self._fingerprint(problem)
        cached = self._memo_get(key)
        if cached is not None:
            self.reuse_hits += 1
            _obs.add("facility.incremental_reuse")
            return cached
        solution = self._fast_greedy(problem)
        self.fast_solves += 1
        self._memo_put(key, solution)
        return solution

    def _fingerprint(self, problem: UFLProblem) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._conn_token or b"")
        digest.update(np.ascontiguousarray(problem.facility_costs).tobytes())
        return digest.digest()

    def _fast_greedy(self, problem: UFLProblem) -> UFLSolution:
        """The greedy of :func:`solve_greedy`, replayed over warm caches.

        Same stars, same ratios, same tie-breaking as the reference,
        round for round; a round only recomputes the facilities the
        reference's scan could stop at.
        """
        if not problem.is_feasible():
            raise ValueError(
                "infeasible UFL instance: a client has no reachable facility"
            )
        self._refresh_round1(problem.facility_costs)
        ratio = self._round1_ratio.copy()
        kpos = self._round1_kpos.copy()
        opening = problem.facility_costs.copy()
        unassigned = np.ones(problem.num_clients, dtype=bool)
        #: ``ratio[f]`` is exact unless ``stale[f]``; then it is a lower
        #: bound on the exact value (and ``kpos[f]`` is unused).
        stale = np.zeros(problem.num_facilities, dtype=bool)
        open_set: List[int] = []

        while unassigned.any():
            # A stale facility can be a record of the exact ratios only if
            # its bound undercuts every exact ratio before it.  Refresh
            # those; what stays stale is then no record of ``ratio``
            # either, and with every record exact and every other entry a
            # lower bound the prefix minima — hence the records, hence
            # the scan — are those of the exact ratios.
            exact = np.where(stale, np.inf, ratio)
            pending = np.flatnonzero(stale & (ratio < _least_before(exact)))
            if pending.size:
                ratio[pending], kpos[pending] = self._stars(
                    pending, unassigned, opening[pending]
                )
                stale[pending] = False
            facility = _scan_best(ratio)
            if facility < 0:
                raise ValueError("greedy could not serve all clients (infeasible)")
            if facility not in open_set:
                open_set.append(facility)
                opening[facility] = 0.0
            head = self._order2d[facility, : kpos[facility] + 1]
            star = head[unassigned[head]]
            unassigned[star] = False
            # A facility none of whose clients at positions <= kpos left
            # keeps (ratio, kpos) bitwise: the ratios up to kpos are
            # untouched, and every later one can only grow — the
            # remaining sorted costs are element-wise >= the old ones and
            # fl(+), fl(/) are monotone — so the first minimum stays put.
            # For the same reason the others' old ratios are lower bounds.
            stale |= (self._pos_t[star] <= kpos).any(axis=0)
            # The opened facility's cost fell, so its old ratio bounds
            # nothing; 0.0 does (it is stale: its star sat at <= kpos).
            ratio[facility] = 0.0

        return assign_to_open(problem, open_set)
