"""Greedy (dual-fitting) UFL solver.

The classic Jain–Mahdian–Saberi style greedy: repeatedly open the
facility/client-star with the lowest average cost until every client is
served, then reassign clients to their cheapest open facility.  This is
*the* solver for the per-item placement problem — near-optimal in
practice (the paper cites Li's 1.488-approximation as state of the art; the
greedy achieves ≤1.861 in theory and is typically within a few percent of
the MILP optimum on these geometric instances, which the test-suite checks).

**Exactness.**  Every Eq. 1/2 input is an integer (slots, hop counts,
whole-metre ranges, A), so a star of k clients at facility f has the
ratio ``P/Q`` with ``P = num_f + den_f·Σc`` and ``Q = den_f·k``, where
``num_f / den_f`` is f's opening cost (:class:`UFLProblem`); an open
facility has ``num = 0, den = 1``.  The solver computes each ratio as one
correctly rounded division of two exact integers.  :class:`UFLProblem`
guarantees ``max P · max Q < 2⁵²``; two distinct ratios then differ by at
least ``1/(Q₁Q₂)``, more than one ulp of either, so they round to
distinct doubles.  The float order *is* the order in ℚ: ``np.argmin``
(first minimum) is the lowest-index tie-break, ``>`` is exact, and a
rounded ratio of clients that each cost at least ``c`` is at least ``c``.
The greedy decides Eq. 3 exactly, which is what a validator re-derives;
``tests/spec.py`` holds the same greedy in ``Fraction``.

Written as the textbook loop — every round, sort every facility's
unassigned clients and scan for the best star — the greedy costs
O(rounds · F · C log C): over a second per placement at 200 nodes.
:class:`GreedySolver` takes the same rounds while sorting once per
connection matrix and recomputing almost nothing per round:

* each facility's stable cost order is computed once per connection
  matrix (a *structural change* — mobility epoch, churn, another
  cluster — rebuilds it; ``np.array_equal`` against the held matrix
  detects one), and a round's stars run over the unassigned columns of
  it only (:meth:`GreedySolver._stars`);
* between solves, only facilities whose opening cost changed get their
  first-round star recomputed (:meth:`GreedySolver._refresh_round1`);
* removing clients never lowers a ratio, so a facility whose star lost
  a client keeps its old ratio as a lower bound and is recomputed only
  once that bound could make it the pick;
* two rules take many textbook rounds at once: a run of disjoint
  one-client stars opens together (:meth:`GreedySolver._singletons`),
  and the *hand step* in :meth:`GreedySolver._greedy` gives the open
  set, at once, every client it serves below the least closed ratio
  (the solve ends when that is every client left).  DESIGN.md §13
  argues each.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.facility.problem import UFLProblem, UFLSolution, assign_to_open, frozen
from repro.obs import runtime as _obs


#: The :class:`GreedySolver` attributes a pickle keeps.
_COUNTERS = ("epoch_rebuilds", "rounds", "batches", "hand_steps")


def _leading(mask: np.ndarray) -> int:
    """How many entries at the start of ``mask`` are all true."""
    return mask.size if mask.all() else int(np.argmin(mask))


def _best_prefix(
    costs: np.ndarray, num: np.ndarray, den: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ratio, index)`` of the cheapest prefix of each row of sorted
    costs, a row opening for ``num / den``: each prefix of k costs is
    ``(num + den·Σc) / (den·k)``, exact integers divided once."""
    ratios = np.cumsum(costs, axis=1)
    ratios *= den[:, None]
    ratios += num[:, None]
    ratios /= den[:, None] * np.arange(1, costs.shape[1] + 1)
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
        #: unassigned, valid for the opening costs ``_last_opening``
        #: (numerators over denominators) on the current matrix (``nan``
        #: there: no star cached yet — it compares unequal to any cost).
        self._round1_ratio = np.empty(0)
        self._round1_kpos = np.empty(0, dtype=np.intp)
        self._round1_size = np.empty(0, dtype=np.intp)
        self._last_opening = np.empty((2, 0))
        # -- counters (the only state a pickle keeps) ------------------------
        #: Structural changes seen, each one a rebuild of every cache.
        self.epoch_rebuilds = 0
        #: Greedy rounds taken over every solve; a batch is one round.
        self.rounds = 0
        #: Rounds that opened a run of one-client stars at once.
        self.batches = 0
        #: Rounds that handed clients to open facilities at once.
        self.hand_steps = 0

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle as a cold solver.

        Snapshots pickle the whole runtime; the caches (3 · n² · 8 B) are
        a pure function of the next problem, so a resumed run pays one
        epoch rebuild instead of every snapshot carrying them.
        """
        state = vars(type(self)())
        state.update((name, vars(self)[name]) for name in _COUNTERS)
        return state

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
        self._last_opening = np.full((2, problem.num_facilities), np.nan)

    # ------------------------------------------------------------------ candidates

    def _stars(
        self, rows: np.ndarray, unassigned: np.ndarray, num: np.ndarray, den: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best star ``(ratio, kpos, size)`` of each facility in ``rows``.

        ``kpos`` is the position of the star's last client in the
        facility's cached order; the star is the ``size`` unassigned
        clients at positions ``<= kpos``.  The unassigned positions of the
        cached order, in increasing order, *are* the textbook loop's
        sorted cost list (a subset of a stable order is the stable order
        of the subset), so sorting each row's u unassigned positions out
        of ``_pos_t`` and running :func:`_best_prefix` over those u
        columns gives the textbook prefix sums, counts and ratios;
        unreachable clients cost ``inf`` and sort after every finite
        cost, so the first-minimum ``argmin`` lands on the textbook
        loop's client.  A facility that cannot open (``num = inf``) or
        reaches no unassigned client gets ratio ``inf`` and ``kpos = 0``,
        via ``argmin`` of an all-``inf`` row.
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
        ratio, best = _best_prefix(
            self._sorted2d[rows[:, None], positions], num, den
        )
        kpos = np.where(ratio < np.inf, positions[np.arange(rows.size), best], 0)
        return ratio, kpos, best + 1

    def _refresh_round1(self, opening: np.ndarray) -> None:
        """Recompute first-round stars only for facilities whose opening
        cost (``opening``: numerators, denominators) changed.

        With every client unassigned a row's unassigned positions are all
        of them, in order, so the stars read the cached rows as they are:
        what :meth:`_stars` computes, without the gather and the sort.
        """
        changed = np.flatnonzero((opening != self._last_opening).any(axis=0))
        if changed.size:
            ratio, best = _best_prefix(self._sorted2d[changed], *opening[:, changed])
            self._round1_ratio[changed] = ratio
            self._round1_kpos[changed] = np.where(ratio < np.inf, best, 0)
            self._round1_size[changed] = best + 1
        self._last_opening = opening.copy()

    def _after_opening(self, rows: np.ndarray, kpos: np.ndarray) -> np.ndarray:
        """Lower bound on each row's best star once its star is taken.

        The star took every unassigned client at positions ``<= kpos``, so
        whatever the row serves next costs at least ``c = _sorted2d[f,
        kpos + 1]`` a client, and its opening cost is 0: its ratio is at
        least ``c``, exactly (module docstring).  A row with nothing after
        ``kpos`` serves no one again: ``inf``.
        """
        width = self._sorted2d.shape[1]
        after = kpos + 1
        return np.where(
            after < width,
            self._sorted2d[rows, np.minimum(after, width - 1)],
            np.inf,
        )

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
        client, and whose largest ratio ``M`` is below every other entry:
        the next exact ratio, every stale lower bound, and each member's
        :meth:`_after_opening` bound.  Each of those rounds picks a
        member: disjoint one-client stars leave each other alone, and an
        opened member's next ratio is at least its bound, above ``M``.
        Empty when no run qualifies.
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
        fits = np.flatnonzero(outside > ratio[run])
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
        a round only recomputes the facilities that could be its pick,
        takes a run of certain one-client openings at once, and then
        hands the open set every client it wins before a closed facility
        can win a round.
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
        # A facility that cannot open works as ``inf / 1``: every ratio
        # it forms is ``inf``.
        num, den = opening = np.stack(
            (
                np.where(problem.opening_den > 0, problem.opening_num, np.inf),
                np.maximum(problem.opening_den, 1.0),
            )
        )
        self._refresh_round1(opening)
        ratio = self._round1_ratio.copy()
        kpos = self._round1_kpos.copy()
        size = self._round1_size.copy()
        unassigned = np.ones(problem.num_clients, dtype=bool)
        #: ``ratio[f]`` is exact unless ``stale[f]``; then it is a lower
        #: bound on the exact value (and ``kpos[f]``, ``size[f]`` unused).
        stale = np.zeros(problem.num_facilities, dtype=bool)
        closed = np.ones(problem.num_facilities, dtype=bool)
        #: Each client's cheapest connection to an open facility.
        open_cost = np.full(problem.num_clients, np.inf)
        open_set: List[int] = []
        rounds = 0

        def refresh(pending: np.ndarray) -> None:
            """Make the entries of ``pending`` exact."""
            if pending.size:
                ratio[pending], kpos[pending], size[pending] = self._stars(
                    pending, unassigned, num[pending], den[pending]
                )
                stale[pending] = False

        while True:
            rounds += 1
            # A stale facility can be the pick only if its bound is at
            # most the least exact ratio.  Refresh those; every bound left
            # is then above the least exact ratio, so the first minimum
            # of ``ratio`` is the textbook loop's pick.
            least = np.min(ratio, where=~stale, initial=np.inf)
            refresh(np.flatnonzero(stale & (ratio <= least)))
            facility = int(np.argmin(ratio))
            if ratio[facility] == np.inf:
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
            num[opened], den[opened] = 0.0, 1.0
            unassigned[star] = False
            if not unassigned.any():
                break
            # A facility none of whose clients at positions <= kpos left
            # keeps (ratio, kpos, size): the ratios up to kpos are
            # untouched, and every later one can only grow — the
            # remaining sorted costs are element-wise >= the old ones —
            # so the first minimum stays put.  For the same reason the
            # others' old ratios are lower bounds.
            stale |= (self._pos_t[star] <= kpos).any(axis=0)
            # Every picked facility lost its own star: stale, bounded by
            # what its row serves next.
            ratio[picked] = self._after_opening(picked, kpos[picked])
            if opened.size:
                reach = self._connection[opened].min(axis=0)
                np.minimum(open_cost, reach, out=open_cost)
            # The hand step.  An open facility's best star is its cheapest
            # unassigned client and closed ratios only grow, so the textbook
            # loop gives each client whose ``open_cost`` is below the least
            # closed entry to an open facility, a round each, before a closed
            # one can win.  Lift that entry lazily (the stale bounds that could
            # be it and are below some open cost) and hand them all at once.
            least = np.min(ratio, where=closed & ~stale, initial=np.inf)
            top = np.max(open_cost, where=unassigned, initial=0.0)
            refresh(np.flatnonzero(closed & stale & (ratio <= least) & (ratio < top)))
            least_closed = np.min(ratio, where=closed, initial=np.inf)
            handed = np.flatnonzero(unassigned & (open_cost < least_closed))
            if handed.size:
                self.hand_steps += 1
                unassigned[handed] = False
                if not unassigned.any():
                    break
                stale |= (self._pos_t[handed] <= kpos).any(axis=0)

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
