"""Greedy (dual-fitting) UFL solver.

The classic Jain–Mahdian–Saberi style greedy: repeatedly open the
facility/client-star with the lowest average cost until every client is
served, then reassign clients to their cheapest open facility.  This is
*the* solver for the per-item placement problem — near-optimal in
practice (the paper cites Li's 1.488-approximation as state of the art; the
greedy achieves ≤1.861 in theory and is typically within a few percent of
the MILP optimum on these geometric instances, which the test-suite checks).

Written as the textbook loop — every round, sort every facility's
unassigned clients and scan for the best star — the greedy costs
O(rounds · F · C log C): instantaneous at the paper's ≤ 50 nodes, over a
second per placement at 200.  :class:`GreedySolver` computes the same
stars, ratios and tie-breaks, round for round, while sorting once per
connection matrix and recomputing almost nothing per round; the textbook
loop lives on in ``tests/helpers.reference_greedy`` as the differential
oracle it is held **bit-identical** to
(``tests/property/test_fastpath_equivalence.py``).

The simulation solves one instance per placed item, and consecutive
instances are nearly identical: the connection matrix (RDC, Eq. 2) only
changes at mobility epochs or churn events, while the facility costs
(FDC, Eq. 1) change at a handful of nodes — exactly the facilities the
previous solve opened.  A long-lived solver reuses, all exact:

1. **Sorted rows** — while the connection matrix is unchanged, each
   facility's stable cost ordering is computed once, as 2-D arrays, and
   no cost is sorted again: not per solve and not per greedy round.
2. **First-round stars** — between solves, only facilities whose
   opening cost changed have their first-round star recomputed;
   untouched facilities reuse the previous star verbatim (it
   depends only on the opening cost and the — unchanged — sorted row).

Reuse between the greedy rounds of one solve rests on three facts, each
argued where the code relies on it and checked against the oracle by
the differential suite:

* no cost sort after the epoch build — the unassigned positions of the
  cached order, in increasing order, are the textbook loop's sorted cost
  list, so a round's stars cost a ``cumsum`` over the unassigned columns
  only (:meth:`GreedySolver._stars`);
* removing clients never lowers a facility's ratio, and leaves its star
  bitwise alone unless the star lost a client
  (:meth:`GreedySolver._greedy`);
* the ``1e-12`` tie-break scan only ever stops at strict prefix-minimum
  records (:func:`_scan_best`).

Together: a round recomputes only the facilities whose star lost a
client *and* whose old ratio could still make them a record.

Most of the textbook loop's rounds cannot change its answer, and two
exact rules take them in one step (:meth:`GreedySolver._greedy`):

* **Singleton batch.**  When the scan picks a closed facility whose star
  is one client, take the exact ratios in ascending order and open at
  once the longest prefix whose stars are one client each, no two the
  same client, and whose largest ratio ``M`` satisfies ``v - 1e-12 > M``
  — the scan's own comparison — for every entry ``v`` outside it: the
  next exact ratio, every stale lower bound, and each member's
  post-opening bound.  The scan never settles on a ratio ``v`` with
  ``v - 1e-12 > r`` for another ratio ``r`` — whichever of the two it
  meets second, the comparison goes ``r``'s way — so the textbook picks
  a member in each of its next rounds: a member's star is disjoint from
  the others', so opening one leaves the others bitwise alone, and an
  opened member's next star is at least its post-opening bound, still
  outside.  The open set does not depend on the order the members open
  in, and :func:`assign_to_open` sorts it.
* **Tail exit.**  ``open_cost[c]`` is client c's cheapest open
  facility.  An open facility's one-client ratio for c is exactly
  ``connection[f, c]``, so while clients remain some open facility's
  ratio is at most ``Q = max(open_cost[unassigned])``, and ``Q`` only
  falls as clients leave.  A closed facility's ratio only grows, so once
  every closed entry ``v`` (exact or lower bound) has ``v - 1e-12 > Q``
  no closed facility can be picked again: the open set is final, and
  the rounds left only hand clients to open facilities, which
  :func:`assign_to_open` redoes anyway.

The **post-opening bound** of a facility whose star ended at position
``kpos`` is ``c·(1 - (n+2)·2⁻⁵²)`` with ``c = _sorted2d[f, kpos+1]``
(``inf`` past the row's end).  Each client it serves next costs at
least ``c`` and its opening cost is 0; float summation is monotone in
every term, so the float ratio of k such clients is at least the float
average of k copies of ``c`` — at least ``c·(1 - k·2⁻⁵³)`` — and
``k <= n``.  Equal non-representable costs really do average below
``c`` (ten 0.1s sum to 0.9999999999999999), which is why the bound is
not ``c`` itself.

A **structural change** (connection matrix shape or contents changed:
mobility epoch, node offline/online, different cluster) drops every
cache and rebuilds it for the epoch that follows; the rebuilt caches
serve that very solve through the same exact path, which is all the
one-shot :func:`solve_greedy` does.  A solve detects one by comparing
its matrix with the one the caches were built from (``np.array_equal``:
one pass, no hashing); the allocator hands in the same read-only matrix
for a whole topology epoch, which the solver then holds without a copy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open, frozen
from repro.obs import runtime as _obs


#: ``2⁻⁵²``, the gap between 1 and the next double.
_EPSILON = 2.0**-52

#: The :class:`GreedySolver` attributes a pickle keeps.
_COUNTERS = ("epoch_rebuilds", "rounds", "batches", "tail_exits")


def _least_before(values: np.ndarray) -> np.ndarray:
    """Element i: the minimum of ``values[:i]`` (``inf`` for i = 0)."""
    return np.concatenate(([np.inf], np.minimum.accumulate(values)[:-1]))


def _scan_best(ratio: np.ndarray) -> int:
    """Index the textbook loop's sequential ``1e-12`` scan would settle on.

    That loop walks the facilities in index order and replaces its
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


def _leading(mask: np.ndarray) -> int:
    """How many entries at the start of ``mask`` are all true."""
    return mask.size if mask.all() else int(np.argmin(mask))


def _best_prefix(
    costs: np.ndarray, opening: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ratio, index)`` of the cheapest prefix of each row of sorted costs."""
    ratios = np.cumsum(costs, axis=1)
    ratios += opening[:, None]
    ratios /= np.arange(1, costs.shape[1] + 1)
    best = np.argmin(ratios, axis=1)
    return ratios[np.arange(best.size), best], best


class GreedySolver:
    """The greedy over caches that outlive one solve.

    One instance is shared by a whole cluster (the allocator owns it):
    every cached artefact is a pure function of the problem instance, so
    sharing across miner and validators only saves work — it can never
    make two nodes disagree.
    """

    def __init__(self) -> None:
        # -- per-connection-matrix state -----------------------------------
        #: The connection matrix every cache below was built from
        #: (read-only; see :func:`~repro.facility.problem.frozen`).
        self._connection = np.empty((0, 0))
        #: Row f: facility f's clients in stable (cost, client-id) order —
        #: the order the textbook filter-then-stable-argsort produces for
        #: any client subset, since a subset keeps its relative order.
        self._order2d = np.empty((0, 0), dtype=np.intp)
        #: Connection costs in that order; ``inf`` sorts last, so each
        #: row's finite costs form a prefix.
        self._sorted2d = np.empty((0, 0))
        #: Inverse permutation, client-major: ``_pos_t[c, f]`` is where
        #: client c sits in ``_order2d[f]``.
        self._pos_t = np.empty((0, 0), dtype=np.intp)
        # -- warm first-round stars ----------------------------------------
        #: ``(ratio, kpos, size)`` per facility with every client
        #: unassigned, valid for ``_last_facility_costs`` on the current
        #: matrix (``nan`` there: no star cached yet — it compares unequal
        #: to any cost).
        self._round1_ratio = np.empty(0)
        self._round1_kpos = np.empty(0, dtype=np.intp)
        self._round1_size = np.empty(0, dtype=np.intp)
        self._last_facility_costs = np.empty(0)
        # -- counters (the only state a pickle keeps) ------------------------
        #: Structural changes seen, each one a rebuild of every cache.
        self.epoch_rebuilds = 0
        #: Greedy rounds taken over every solve; a batch is one round.
        self.rounds = 0
        #: Rounds that opened a run of one-client stars at once.
        self.batches = 0
        #: Solves that stopped once no closed facility could win.
        self.tail_exits = 0

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle as a cold solver.

        Snapshots pickle the whole runtime; the caches (3 · n² · 8 B) are
        a pure function of the next problem, so a resumed run pays one
        epoch rebuild instead of every snapshot carrying them.
        """
        state = vars(type(self)())
        state.update((name, vars(self)[name]) for name in _COUNTERS)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore a pickle, counters it predates starting at 0."""
        self.__init__()
        vars(self).update(state)

    # ------------------------------------------------------------------ cache plumbing

    def _reset_epoch(self, problem: UFLProblem) -> None:
        """Rebuild the per-connection-matrix caches (structural change)."""
        connection = self._connection = frozen(problem.connection_costs)
        self._order2d = np.argsort(connection, kind="stable", axis=1)
        self._sorted2d = np.take_along_axis(connection, self._order2d, axis=1)
        # The inverse of a permutation is its argsort.
        self._pos_t = np.ascontiguousarray(np.argsort(self._order2d, axis=1).T)
        self._round1_ratio = np.full(problem.num_facilities, np.inf)
        self._round1_kpos = np.zeros(problem.num_facilities, dtype=np.intp)
        self._round1_size = np.ones(problem.num_facilities, dtype=np.intp)
        self._last_facility_costs = np.full(problem.num_facilities, np.nan)

    # ------------------------------------------------------------------ candidates

    def _stars(
        self, rows: np.ndarray, unassigned: np.ndarray, opening: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best star ``(ratio, kpos, size)`` of each facility in ``rows``.

        ``kpos`` is the position of the star's last client in the
        facility's cached order; the star is the ``size`` unassigned
        clients at positions ``<= kpos``.  The unassigned positions of the
        cached order, in increasing order, *are* the textbook loop's
        sorted cost list (a subset of a stable order is the stable order
        of the subset), so sorting each row's u unassigned positions out
        of ``_pos_t`` and running ``cumsum``, divide and ``argmin`` over
        those u columns gives bitwise the textbook prefix sums, counts
        and ratios; unreachable clients cost ``inf`` and sort after every
        finite cost, so the first-minimum ``argmin`` lands on the
        textbook loop's client.  A facility that cannot open or reaches
        no unassigned client gets ratio ``inf`` and ``kpos = 0`` — what
        the masked full-width formula answers, via ``argmin`` of an
        all-``inf`` row.
        """
        clients = np.flatnonzero(unassigned)
        if not clients.size:
            return (
                np.full(rows.size, np.inf),
                np.zeros(rows.size, dtype=np.intp),
                np.ones(rows.size, dtype=np.intp),
            )
        positions = self._pos_t[clients[:, None], rows].T.copy()
        positions.sort(axis=1)
        ratio, best = _best_prefix(self._sorted2d[rows[:, None], positions], opening)
        kpos = np.where(ratio < np.inf, positions[np.arange(rows.size), best], 0)
        return ratio, kpos, best + 1

    def _refresh_round1(self, facility_costs: np.ndarray) -> None:
        """Recompute first-round stars only for facilities whose FDC changed.

        With every client unassigned a row's unassigned positions are all
        of them, in order, so the stars read the cached rows as they are:
        what :meth:`_stars` computes, without the gather and the sort.
        """
        changed = np.flatnonzero(facility_costs != self._last_facility_costs)
        if changed.size:
            ratio, best = _best_prefix(
                self._sorted2d[changed], facility_costs[changed]
            )
            self._round1_ratio[changed] = ratio
            self._round1_kpos[changed] = np.where(ratio < np.inf, best, 0)
            self._round1_size[changed] = best + 1
        self._last_facility_costs = facility_costs.copy()

    def _after_opening(self, rows: np.ndarray, kpos: np.ndarray) -> np.ndarray:
        """Lower bound on each row's best star once its star is taken.

        The star took every unassigned client at positions ``<= kpos``, so
        whatever the row serves next costs at least ``c = _sorted2d[f,
        kpos + 1]`` a client, and its opening cost is 0.  In exact
        arithmetic its ratio is then ``>= c``; the float ratio of k such
        clients is a sequential sum of k costs ``>= c`` — monotone in
        every term, so ``>=`` the float sum of k copies of ``c``, which is
        ``>= k·c·(1 - (k-1)·2⁻⁵³)`` — divided by k with one more rounding:
        ``>= c·(1 - k·2⁻⁵³)``.  ``k <= n`` and the product below rounds by
        at most ``2⁻⁵³`` relative, so ``c·(1 - (n+2)·2⁻⁵²)`` stays under
        it.  A row with nothing after ``kpos`` serves no one again: ``inf``.
        """
        width = self._sorted2d.shape[1]
        after = kpos + 1
        cost = np.where(
            after < width,
            self._sorted2d[rows, np.minimum(after, width - 1)],
            np.inf,
        )
        return cost * (1.0 - (width + 2) * _EPSILON)

    def _singletons(
        self,
        ratio: np.ndarray,
        kpos: np.ndarray,
        size: np.ndarray,
        stale: np.ndarray,
    ) -> np.ndarray:
        """Facilities the textbook loop's next rounds open, one each.

        The longest run of the lowest exact ratios (ascending, ties in
        index order) whose stars are one client each, no two the same
        client, and whose largest ratio ``M`` the scan's own comparison
        puts below every other entry: ``v - 1e-12 > M`` for the next exact
        ratio, every stale lower bound, and each member's
        :meth:`_after_opening` bound.  Empty when no run qualifies.
        """
        exact = np.flatnonzero(~stale)
        order = exact[np.argsort(ratio[exact], kind="stable")]
        run = order[: _leading((size[order] == 1) & (ratio[order] < np.inf))]
        clients = self._order2d[run, kpos[run]]
        first_seen = np.zeros(run.size, dtype=bool)
        first_seen[np.unique(clients, return_index=True)[1]] = True
        run = run[: _leading(first_seen)]
        following = np.append(ratio[order[1:]], np.inf)[: run.size]
        outside = np.minimum.accumulate(self._after_opening(run, kpos[run]))
        np.minimum(outside, following, out=outside)
        np.minimum(outside, np.min(ratio, where=stale, initial=np.inf), out=outside)
        fits = np.flatnonzero(outside - 1e-12 > ratio[run])
        return run[: fits[-1] + 1] if fits.size else run[:0]

    # ------------------------------------------------------------------ solving

    def solve(self, problem: UFLProblem) -> UFLSolution:
        """Solve a UFL instance greedily.

        Raises
        ------
        ValueError
            If the instance is infeasible (some client cannot reach any
            openable facility with finite cost).
        """
        return _traced_solve(problem, self)

    def _greedy(self, problem: UFLProblem) -> UFLSolution:
        """Every greedy round of one solve, over the warm caches.

        Same stars, same ratios, same tie-breaking as the textbook loop;
        a round only recomputes the facilities that loop's scan could
        stop at, takes a run of certain one-client openings at once, and
        the loop ends once no closed facility can win a round.
        """
        if not problem.is_feasible():
            raise ValueError(
                "infeasible UFL instance: a client has no reachable facility"
            )
        if not np.array_equal(problem.connection_costs, self._connection):
            # Structural change: topology moved under us.  The warm path
            # is exact from a cold cache too, so it serves this solve.
            self.epoch_rebuilds += 1
            _obs.add("facility.epoch_rebuilds")
            self._reset_epoch(problem)
        self._refresh_round1(problem.facility_costs)
        ratio = self._round1_ratio.copy()
        kpos = self._round1_kpos.copy()
        size = self._round1_size.copy()
        opening = problem.facility_costs.copy()
        unassigned = np.ones(problem.num_clients, dtype=bool)
        #: ``ratio[f]`` is exact unless ``stale[f]``; then it is a lower
        #: bound on the exact value (and ``kpos[f]``, ``size[f]`` unused).
        stale = np.zeros(problem.num_facilities, dtype=bool)
        closed = np.ones(problem.num_facilities, dtype=bool)
        #: Each client's cheapest connection to an open facility.
        open_cost = np.full(problem.num_clients, np.inf)
        open_set: List[int] = []
        rounds = 0

        while True:
            rounds += 1
            # A stale facility can be a record of the exact ratios only if
            # its bound undercuts every exact ratio before it.  Refresh
            # those; what stays stale is then no record of ``ratio``
            # either, and with every record exact and every other entry a
            # lower bound the prefix minima — hence the records, hence
            # the scan — are those of the exact ratios.
            exact = np.where(stale, np.inf, ratio)
            pending = np.flatnonzero(stale & (ratio < _least_before(exact)))
            if pending.size:
                ratio[pending], kpos[pending], size[pending] = self._stars(
                    pending, unassigned, opening[pending]
                )
                stale[pending] = False
            facility = _scan_best(ratio)
            if facility < 0:
                raise ValueError("greedy could not serve all clients (infeasible)")
            picked = (
                self._singletons(ratio, kpos, size, stale)
                if size[facility] == 1 and closed[facility]
                else np.empty(0, dtype=np.intp)
            )
            if picked.size:
                self.batches += 1
                star = self._order2d[picked, kpos[picked]]
            else:
                picked = np.array([facility])
                head = self._order2d[facility, : kpos[facility] + 1]
                star = head[unassigned[head]]
            opened = picked[closed[picked]]
            open_set.extend(opened.tolist())
            closed[opened] = False
            opening[opened] = 0.0
            unassigned[star] = False
            if not unassigned.any():
                break
            # A facility none of whose clients at positions <= kpos left
            # keeps (ratio, kpos, size) bitwise: the ratios up to kpos are
            # untouched, and every later one can only grow — the
            # remaining sorted costs are element-wise >= the old ones and
            # fl(+), fl(/) are monotone — so the first minimum stays put.
            # For the same reason the others' old ratios are lower bounds.
            stale |= (self._pos_t[star] <= kpos).any(axis=0)
            # Every picked facility lost its own star: stale, bounded by
            # what its row serves next.
            ratio[picked] = self._after_opening(picked, kpos[picked])
            if opened.size:
                reach = self._connection[opened].min(axis=0)
                np.minimum(open_cost, reach, out=open_cost)
            # An open facility's one-client ratio for client c is
            # connection[f, c]; so some open facility's exact ratio is at
            # most ``max(open_cost[unassigned])``.  Once every closed
            # entry clears that by the scan's 1e-12, no closed facility
            # can be picked again: the open set is final.
            least_closed = np.min(ratio, where=closed, initial=np.inf)
            if least_closed - 1e-12 > np.max(open_cost, where=unassigned, initial=0.0):
                self.tail_exits += 1
                break

        self.rounds += rounds
        _obs.add("facility.greedy_rounds", rounds)
        # Final improvement: every client connects to its cheapest open facility.
        return assign_to_open(problem, open_set)


@_obs.traced_solver("greedy")
def _traced_solve(problem: UFLProblem, solver: GreedySolver) -> UFLSolution:
    """``solver._greedy`` under the ``facility.solve`` span (problem first)."""
    return solver._greedy(problem)


def solve_greedy(problem: UFLProblem) -> UFLSolution:
    """Solve one UFL instance greedily, from cold caches.

    For a stream of related instances keep a :class:`GreedySolver`.
    Raises ``ValueError`` if the instance is infeasible.
    """
    return GreedySolver().solve(problem)
