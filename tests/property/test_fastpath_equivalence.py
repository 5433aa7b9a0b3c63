"""Differential harness: the one path is bit-identical to its oracles.

Each fast implementation once shipped beside the slow one it replaced,
behind a knob; the knobs are gone and the slow implementations live on
here (and in ``tests/helpers.py``) as oracles.  This suite drives the
production code side by side with them, from Hypothesis-generated
component instances up to full seeded experiments whose ``chain_digest``
/ ``ledger_digest`` / monitor verdict are pinned.

Layers:

* **UFL** — :class:`GreedySolver` vs the exact textbook greedy of
  :func:`tests.spec.greedy` (Eq. 3 in ``Fraction``) over integer and
  small-rational replay sequences (facility-cost drift between solves,
  occasional connection-matrix changes exercising the epoch rebuild),
  tie-heavy hop-count instances and a near-tie family (equal in ℚ, split
  by rounding the opening cost first); the float-order lemma the solver
  rests on; each star against :func:`tests.spec.star`.
* **RDC** — :func:`range_distance_costs` vs Eq. 2 in ``Fraction``
  (:func:`tests.spec.rdc`), with unreachable pairs.
* **Routing** — vectorised unit-disk edges and the cached BFS hop matrix
  vs the nested-loop + networkx reference, across mobility and churn; the
  bitset BFS at 0, 1, 63–65 and 130 nodes, with offline nodes and several
  components, vs networkx over the same edges; and
  every route ``Topology`` picks over its own adjacency vs
  ``nx.shortest_path`` on a graph driven through the same edge edits
  (networkx is this module's oracle; nothing under ``src/`` imports it).
* **Delivery** — batched vs per-event scheduling (a test-local shim
  un-batches the engine): identical execution order, identical RNG
  stream, identical traffic accounting.
* **PoS** — exact-integer ``mining_delay`` vs a Fraction oracle,
  including >2⁵³ hits; the integer Eq. 9 check ``satisfies_target`` vs
  its five-Fraction oracle (:func:`tests.helpers.reference_satisfies_target`)
  at h = ⌊R⌋ and ⌊R⌋ ± 1, with subnormal and 2⁶⁰-scale B, NaN and
  infinity.
* **Hashing** — ``hash_items``'s exact-type dispatch vs every field
  through ``_encode_field`` (:func:`tests.helpers.reference_hash_items`):
  the same bytes, and the same exception for bool / float / bytearray /
  None and lone surrogates.
* **End to end** — seeded scenarios (steady state, fast mobility, churn)
  against the digests recorded from the reference greedy + un-batched
  delivery run, at the last commit that still had both.
"""

from __future__ import annotations

import hashlib
import json
import math
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import LifecycleSpec
from repro.core.pos import mining_delay, satisfies_target
from repro.crypto.hashing import hash_items
from repro.facility.costs import build_storage_ufl, range_distance_costs
from repro.facility.greedy import GreedySolver
from repro.facility.problem import UFLProblem
from repro.sim.runner import ChurnSpec
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.faults import PartitionInjector
from repro.simnet.gossip import GossipFabric
from repro.simnet.topology import (
    UNREACHABLE,
    Position,
    Topology,
    connected_random_positions,
    random_positions,
)
from repro.simnet.transport import Network
from tests import spec
from tests.helpers import (
    digest_run,
    reference_greedy,
    reference_hash_items,
    reference_satisfies_target,
)

pytestmark = pytest.mark.fastpath


# -- UFL: the solver vs the exact textbook greedy -----------------------------------------


@st.composite
def ufl_replay_sequences(draw, max_size=8):
    """A per-item replay: one connection epoch, drifting facility costs.

    Mirrors what the allocator sees between mobility epochs — the RDC
    matrix is fixed while the FDC vector moves a little after every
    placement; occasionally the matrix itself changes (a mobility epoch)
    to exercise the epoch rebuild.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_f = draw(st.integers(min_value=2, max_value=max_size))
    num_c = draw(st.integers(min_value=1, max_value=max_size))
    steps = draw(st.integers(min_value=2, max_value=10))
    epoch_changes = draw(st.integers(min_value=0, max_value=2))
    return seed, num_f, num_c, steps, epoch_changes


def _random_instance(rng, num_f, num_c):
    """Integer connection costs up to 30 (10 % unreachable) and opening
    costs ``num/den`` up to 2000 with small denominators."""
    connection = rng.integers(0, 31, size=(num_f, num_c)).astype(float)
    connection[rng.random((num_f, num_c)) < 0.1] = np.inf
    den = rng.integers(1, 8, size=num_f)
    num = rng.integers(0, 2000 * den + 1)
    return num.astype(float), den.astype(float), connection


def _hop_count_instance(rng, num_f, num_c):
    """Integer costs as the real RDC has them: ties everywhere, >=30 % of
    the pairs unreachable, and some facilities full (denominator 0)."""
    connection = rng.integers(0, 6, size=(num_f, num_c)).astype(float)
    connection[rng.random((num_f, num_c)) < rng.uniform(0.3, 0.6)] = np.inf
    num = rng.integers(0, 8, size=num_f) * rng.choice([1.0, 100.0])
    den = np.full(num_f, rng.choice([1.0, 2.0]))
    den[rng.random(num_f) < 0.2] = 0.0
    return num, den, connection


def _problem(num, den, connection):
    return UFLProblem(num.copy(), den.copy(), connection.copy())


def _assert_same_solution(actual, expected):
    assert actual.open_facilities == expected.open_facilities
    assert actual.assignment == expected.assignment


def _assert_solves_eq3(solution, problem):
    """The solver's answer is the exact textbook greedy's, in ℚ."""
    assert (solution.open_facilities, solution.assignment) == spec.greedy(problem)


@st.composite
def star_instances(draw, max_size=25):
    """An instance and how many of its clients are still unassigned: none,
    one, all but one and all drawn on purpose."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_f = draw(st.integers(min_value=1, max_value=max_size))
    num_c = draw(st.integers(min_value=1, max_value=max_size))
    edges = [0, 1, num_c - 1, num_c]
    count = draw(st.one_of(st.sampled_from(edges), st.integers(0, num_c)))
    return seed, num_f, num_c, count


def _open_as_inf(num, den):
    """The solver's working opening costs: ``inf / 1`` for a facility
    that cannot open."""
    return np.where(den > 0, num, np.inf), np.maximum(den, 1.0)


class TestIncrementalUFLEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ufl_replay_sequences())
    def test_replay_matches_greedy_exactly(self, sequence):
        seed, num_f, num_c, steps, epoch_changes = sequence
        rng = np.random.default_rng(seed)
        solver = GreedySolver()
        num, den, connection = _random_instance(rng, num_f, num_c)
        change_at = set(
            rng.integers(1, steps, size=epoch_changes).tolist()
        ) if epoch_changes else set()
        for step in range(steps):
            if step in change_at:
                _, _, connection = _random_instance(rng, num_f, num_c)
            # FDC drift: the previous winners' loads went up a slot.
            num = num.copy()
            num[rng.integers(0, num_f)] += rng.integers(0, 51)
            problem = _problem(num, den, connection)
            if not problem.is_feasible():
                continue
            _assert_solves_eq3(solver.solve(problem), problem)

    @settings(max_examples=60, deadline=None)
    @given(ufl_replay_sequences(max_size=40))
    def test_tie_heavy_replay_matches_greedy_exactly(self, sequence):
        # Where a lazy round could silently diverge: equal ratios (the
        # first-minimum tie-breaks decide), rows that run out of finite
        # clients mid-solve, facilities that fill up or free up between
        # solves.
        seed, num_f, num_c, steps, epoch_changes = sequence
        rng = np.random.default_rng(seed)
        solver = GreedySolver()
        num, den, connection = _hop_count_instance(rng, num_f, num_c)
        change_at = set(rng.integers(1, steps, size=epoch_changes).tolist())
        for step in range(steps):
            if step in change_at:
                _, _, connection = _hop_count_instance(rng, num_f, num_c)
            num, den = num.copy(), den.copy()
            bump = rng.integers(0, num_f)
            if den[bump]:
                num[bump] += rng.integers(0, 3)
            else:
                num[bump], den[bump] = [(0.0, 1.0), (3.0, 1.0), (0.0, 0.0)][
                    rng.integers(0, 3)
                ]
            problem = _problem(num, den, connection)
            if not problem.is_feasible():
                continue
            _assert_solves_eq3(solver.solve(problem), problem)

    def test_geometric_120_node_replay_matches_greedy(self):
        # The production shape: RDC from a random geometric topology via
        # the real cost builder, loads bumped at the nodes each placement
        # opened, a few nodes full.
        rng = np.random.default_rng(20190707)
        n = 120
        hops = Topology(random_positions(n, rng)).hop_matrix()
        total = np.full(n, 250.0)
        used = rng.integers(0, 60, size=n).astype(float)
        used[rng.choice(n, size=6, replace=False)] = 250.0
        solver = GreedySolver()
        for step in range(20):
            problem = build_storage_ufl(used, total, hops, [30.0] * n)
            solution = solver.solve(problem)
            # The textbook loop in floats decides as the spec does (it
            # divides the same exact integers); the spec, 25× slower
            # still, checks the first placement.
            if step == 0:
                _assert_solves_eq3(solution, problem)
            _assert_same_solution(solution, reference_greedy(problem))
            for node in solution.open_facilities:
                used[node] += 1.0
        assert solver.epoch_rebuilds == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=2, max_value=2**26),
        st.integers(min_value=1, max_value=2**26),
        st.integers(min_value=1, max_value=2**26),
    )
    def test_float_order_is_the_exact_order_below_the_bound(self, q, p, scale):
        # The lemma the solver rests on.  p/q and its Farey neighbour
        # p2/q2 (p·q2 − p2·q = 1) are the closest two ratios with such
        # denominators can be; with every numerator times every
        # denominator below 2**52, one correctly rounded division each
        # keeps them apart, in the right order — and equal ratios equal.
        assume(math.gcd(p, q) == 1 and p < q)
        q2 = pow(p, -1, q)
        p2 = (p * q2 - 1) // q
        assert Fraction(p, q) - Fraction(p2, q2) == Fraction(1, q * q2)
        assert max(p, p2) * max(q, q2) < 2**52
        ratio = np.array([p, p2, p * scale]) / np.array([q, q2, q * scale])
        assert ratio[0] > ratio[1]
        if p * scale * q * scale < 2**52:
            assert ratio[2] == ratio[0]

    def test_float_order_can_fail_past_the_bound(self):
        # Why the bound is checked: Farey neighbours with denominators
        # near 2**30 round to the same double.
        q = 2**30 + 3
        p = 2**30 - 1
        q2 = pow(p, -1, q)
        p2 = (p * q2 - 1) // q
        assert Fraction(p, q) != Fraction(p2, q2)
        assert p / q == p2 / q2

    @settings(max_examples=200, deadline=None)
    @given(star_instances())
    def test_stars_equal_the_full_width_masked_formula(self, instance):
        # ``_stars`` sorts the unassigned positions of the cached rows;
        # each facility's star is the spec's best star over its full row
        # masked to the unassigned clients, its ratio that star's exact
        # average correctly rounded.
        seed, num_f, num_c, unassigned_count = instance
        rng = np.random.default_rng(seed)
        build = _hop_count_instance if seed % 2 else _random_instance
        num, den, connection = build(rng, num_f, num_c)
        connection[rng.random(num_f) < 0.2] = np.inf  # rows reaching no one
        problem = _problem(num, den, connection)
        solver = GreedySolver()
        solver._reset_epoch(problem.connection_costs)
        unassigned = np.zeros(num_c, dtype=bool)
        unassigned[rng.choice(num_c, size=unassigned_count, replace=False)] = True
        rows = np.flatnonzero(rng.random(num_f) < 0.7)
        if not rows.size:
            rows = np.arange(num_f)
        work_num, work_den = _open_as_inf(num, den)
        ratio, kpos, size = solver._stars(
            rows, unassigned, work_num[rows], work_den[rows]
        )
        opening = spec.opening_costs(problem)
        exact = spec.connection_costs(problem)
        clients_left = set(np.flatnonzero(unassigned).tolist())
        for row, r, k, s in zip(rows, ratio, kpos, size):
            best = spec.star(opening[row], exact[row], clients_left)
            if best is None:
                assert r == np.inf and k == 0
                continue
            average, clients = best
            assert r == float(average)
            head = solver._order2d[row, : k + 1]
            assert head[unassigned[head]].tolist() == clients
            assert s == len(clients)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_star_survives_unless_it_lost_a_client(self, seed):
        # What lets a round skip work: removing clients never lowers a
        # facility's ratio, and leaves (ratio, kpos) alone when none of
        # them sat at or before the star's last position.
        rng = np.random.default_rng(seed)
        num_f, num_c = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        num, den, connection = _hop_count_instance(rng, num_f, num_c)
        solver = GreedySolver()
        solver._reset_epoch(_problem(num, den, connection).connection_costs)
        everyone = np.arange(num_f)
        work = _open_as_inf(num, den)
        unassigned = rng.random(num_c) < 0.8
        ratio, kpos, size = solver._stars(everyone, unassigned, *work)
        removed = np.flatnonzero(unassigned & (rng.random(num_c) < 0.3))
        unassigned[removed] = False
        new_ratio, new_kpos, new_size = solver._stars(everyone, unassigned, *work)
        assert (new_ratio >= ratio).all()
        kept = ~(solver._pos_t[removed] <= kpos).any(axis=0)
        kept &= np.isfinite(ratio)
        assert (new_ratio[kept] == ratio[kept]).all()
        assert (new_kpos[kept] == kpos[kept]).all()
        assert (new_size[kept] == size[kept]).all()

    def test_structural_change_falls_back_and_recovers(self):
        rng = np.random.default_rng(9)
        solver = GreedySolver()
        for _ in range(3):  # three epochs: each first solve rebuilds
            num, den, connection = _random_instance(rng, 6, 6)
            for _ in range(4):
                num = num.copy()
                num[rng.integers(0, 6)] += 25 * den.max()
                problem = _problem(num, den, connection)
                _assert_solves_eq3(solver.solve(problem), problem)
        assert solver.epoch_rebuilds == 3


# -- UFL: the rounds the solver takes at once ----------------------------------------


@st.composite
def certain_round_instances(draw, max_size=24):
    """Seed, size and a drift length for one family of the class below."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    size = draw(st.integers(min_value=3, max_value=max_size))
    steps = draw(st.integers(min_value=1, max_value=4))
    return seed, size, steps


def _cheapest_pair(rng, num, den):
    """Two distinct facilities made the strict two cheapest: a run of one-client
    stars the batch rule must take (their own clients, all else dearer)."""
    first, second = rng.choice(num.size, size=2, replace=False)
    least = int(np.argmin(num / den))
    num[second], den[second] = num[least], 4 * den[least]
    num[first], den[first] = 0.0, 1.0
    return first, second


def _near_ties(rng, n):
    """Stars equal in ℚ that rounding the opening cost first splits apart.

    Facility ``t`` opens for ``o = num/den`` and reaches ``u`` at ``c <
    o``: its best star is itself and ``u``, averaging ``(o + c)/2``.
    ``u`` opens alone for exactly that, as ``(num + den·c) / (2·den)``.
    Whichever of the two comes first in index order wins the tie and
    decides the open set: ``t`` takes ``u``'s client, or ``u`` opens and
    ``t`` then opens alone.  Every pair is drawn so that the float
    program ``(fl(o) + c) / 2`` against ``fl((num + den·c) / (2·den))``
    tells the two apart; the exact ratios do not.  Two free facilities
    open first, as one batch.
    """
    n = max(n, 4)
    far = 10**4
    connection = np.full((n, n), float(far))
    np.fill_diagonal(connection, 0.0)
    num = np.full(n, float(far))
    den = np.ones(n)
    order = rng.permutation(n)
    num[order[:2]] = 0.0  # two free facilities: a batch before the ties
    for t, u in zip(order[2::2], order[3::2]):
        while True:
            d = int(rng.choice([3, 7, 9, 11, 13, int(rng.integers(50, 250))]))
            c = int(rng.integers(1, 200))
            o_num = c * d + int(rng.integers(1, 50 * d))
            if (o_num / d + c) / 2 != (o_num + d * c) / (2 * d):
                break
        connection[t, u] = c
        num[t], den[t] = o_num, d
        num[u], den[u] = o_num + d * c, 2 * d
    return num, den, connection


def _inside_the_old_band(rng, n):
    """Distinct ratios closer than 1e-12, which a tie band would merge.

    ``u`` and, after it in index order, ``v`` each reach only client
    ``x``, at 0, and open for Farey neighbours ``p/q > p2/q2`` whose gap
    ``1/(q·q2)`` is below 1e-12.  In ℚ ``v`` is cheaper and takes ``x``,
    so ``u`` never opens; a scan that treats ratios within 1e-12 as tied
    keeps the first, ``u``.  Hub ``h`` serves clients ``u`` and ``v``;
    every other facility serves its own client, for 5.
    """
    n = max(n, 4)
    while True:
        q = int(rng.integers(2**20, 2**21))
        p = int(rng.integers(1, q))
        q2 = pow(p, -1, q) if math.gcd(p, q) == 1 else 0
        if q * q2 > 10**12:
            break
    p2 = (p * q2 - 1) // q
    picks = rng.choice(n, size=4, replace=False)
    (u, v), h, x = sorted(picks[:2]), picks[2], picks[3]
    connection = np.full((n, n), np.inf)
    np.fill_diagonal(connection, 0.0)
    connection[[u, v]] = np.inf
    connection[[u, v], x] = 0.0
    connection[h, [u, v]] = 0.0
    num, den = np.full(n, 5.0), np.ones(n)
    num[[u, v]], den[[u, v]] = [p, p2], [q, q2]
    return num, den, connection


def _shared_singletons(rng, n):
    """Facilities whose one-client star is the same client, at zero
    off-diagonal cost: the batch must stop at the second claim on a client."""
    connection = 10.0 + rng.integers(0, 3, size=(n, n)).astype(float)
    targets = rng.integers(0, max(2, n // 3), size=n)
    connection[np.arange(n), targets] = 0.0
    num, den = rng.integers(1, 5, size=n).astype(float), np.full(n, 2.0)
    first, second = _cheapest_pair(rng, num, den)
    targets[second] = (targets[first] + 1) % n
    connection[second] = 10.0
    connection[second, targets[second]] = 0.0
    return num, den, connection


def _short_rows(rng, n):
    """Rows that run out of finite clients: a row's next cost after its
    star is often ``inf``, so its post-opening bound is too."""
    connection = rng.integers(5, 8, size=(n, n)).astype(float)
    connection[rng.random((n, n)) < rng.uniform(0.7, 1.0)] = np.inf
    np.fill_diagonal(connection, 0.0)
    num, den = rng.integers(1, 5, size=n).astype(float), np.full(n, 2.0)
    _cheapest_pair(rng, num, den)
    return num, den, connection


def _zero_diagonal(rng, n):
    """Hop-count costs with ``c_ii = 0``, as the real RDC has them: most
    stars are one client, and later rounds batch beside stale facilities."""
    connection = rng.integers(1, 6, size=(n, n)).astype(float)
    connection[rng.random((n, n)) < 0.3] = np.inf
    np.fill_diagonal(connection, 0.0)
    num = rng.integers(1, 8, size=n).astype(float)
    den = np.full(n, rng.choice([2.0, 1.0]))
    _cheapest_pair(rng, num, den)
    return num, den, connection


def _stale_beside_the_run(rng, n):
    """A stale facility whose bound ties the cheapest one-client star.

    Round 1 opens ``p`` with client ``y`` — facility ``q``'s star lost
    ``y`` and keeps its old ratio 20 as a bound.  Round 2's cheapest star
    is ``s1`` alone at 20, before ``q``; ``q`` really costs 30 now, for
    itself and ``s2``, whose own star is 35.  The textbook loop opens
    ``s1``, then ``q`` — taking ``s2``'s client — so ``s2`` never opens:
    the stale bound must stop ``s1``'s batch.  Two free facilities batch
    in round 1; the rest never open.
    """
    n = max(n, 7)
    free_a, free_b, s1, q, p, y, s2 = range(7)
    connection = np.full((n, n), 500.0)
    np.fill_diagonal(connection, 0.0)
    connection[p, y] = connection[q, y] = 0.0
    connection[q, s2] = 20.0
    num = np.full(n, 1000.0)
    num[[free_a, free_b, s1, q, p, s2]] = [0.0, 1.0, 20.0, 40.0, 10.0, 35.0]
    order = rng.permutation(n)
    first, second = np.flatnonzero(order == s1)[0], np.flatnonzero(order == q)[0]
    if first > second:  # s1 must come before q in the scan
        order[first], order[second] = q, s1
    scale = 2 ** int(rng.integers(0, 4))
    return scale * num[order], np.ones(n), scale * connection[np.ix_(order, order)]


def _bound_ties_a_price(rng, n):
    """A post-opening bound equal to a closed facility's price.

    Facility ``a`` opens free with its own client, then reaches every
    other client at ``c``: its next star averages exactly ``c``, the
    bound itself.  ``b`` opens alone for exactly ``c`` too.  The tie goes
    to the lower index — ``a`` handing ``b``'s client over, or ``b``
    opening — so ``b`` must not join ``a``'s batch: the bound must be
    strictly above every member.
    """
    n = max(n, 4)
    c = int(rng.integers(1, 10**4))
    connection = np.full((n, n), 10.0**6)
    np.fill_diagonal(connection, 0.0)
    connection[0, 1:] = c
    num = np.full(n, 10.0**6)
    num[0], num[1] = 0.0, c
    order = rng.permutation(n)
    return num[order], np.ones(n), connection[np.ix_(order, order)]


def _hand_at_a_tie(rng, n):
    """An open cost equal to the least closed ratio: a tie, not a hand.

    Hub ``a`` opens alone for 1 and reaches clients ``Y`` at ``c - 1``
    and ``x`` at ``c``; ``b``, before ``a`` in index order, opens for
    exactly ``c`` with ``x`` alone.  The hand takes ``Y`` and must leave
    ``x``: the textbook loop's next round is a tie at ``c``, which ``b``
    wins — handing ``x`` to ``a`` would never open ``b``.  The rest
    cannot open.
    """
    n = max(n, 4)
    a, b = sorted(rng.choice(n, size=2, replace=False))[::-1]
    x = rng.choice(np.setdiff1d(np.arange(n), [a]))
    c = int(rng.integers(2, 10**4))
    connection = np.full((n, n), 10.0**6)
    connection[a] = c - 1
    connection[a, a] = 0.0
    connection[a, x], connection[b, x] = c, 0.0
    num, den = np.zeros(n), np.zeros(n)
    num[a], den[a] = 1.0, 1.0
    num[b], den[b] = float(c), 1.0
    return num, den, connection


def _stale_bound_lifted(rng, n):
    """A stale closed bound below an open cost, which the refresh lifts.

    ``p`` opens for 2 with its own client, which ``q``'s star shared:
    ``q`` keeps the bound 60 while it really costs 120 now.  ``z`` costs
    80 from ``p``: the hand takes it only once ``q`` is refreshed, and
    nothing else is ever handed, so the counter proves the lift.
    """
    n = max(n, 4)
    p, q, z = rng.choice(n, size=3, replace=False)
    connection = np.full((n, n), 10.0**4)
    np.fill_diagonal(connection, 0.0)
    connection[q, p] = 0.0
    connection[p, z] = 80.0
    num = np.full(n, 1000.0)
    num[p], num[q] = 2.0, 120.0
    scale = 2 ** int(rng.integers(0, 4))
    return scale * num, np.ones(n), scale * connection


def _unreachable_from_the_open_set(rng, n):
    """Clients no open facility reaches (``open_cost = inf``) beside
    clients the hand takes: only their own facilities serve them."""
    n = max(n, 4)
    hub = int(rng.integers(0, n))
    connection = np.full((n, n), np.inf)
    np.fill_diagonal(connection, 0.0)
    others = rng.permutation(np.setdiff1d(np.arange(n), [hub]))
    reached = others[: int(rng.integers(1, n - 1))]
    connection[hub, reached] = rng.integers(1, 20, size=reached.size)
    num = rng.integers(20, 60, size=n).astype(float)
    num[hub] = 0.0
    return num, np.ones(n), connection


def _hand_empties_the_rest(rng, n):
    """After the first opening every other client is cheaper from it than
    any closed ratio: one hand serves them all (the old tail exit)."""
    n = max(n, 4)
    hub = int(rng.integers(0, n))
    connection = np.full((n, n), 10.0**5)
    np.fill_diagonal(connection, 0.0)
    connection[hub] = rng.permutation(np.arange(1, n + 1))
    connection[hub, hub] = 0.0
    num = rng.integers(10 * n, 20 * n, size=n).astype(float)
    den = np.ones(n)
    den[rng.random(n) < 0.3] = 0.0
    num[hub], den[hub] = 2.0, 1.0
    return num, den, connection


def _hand_shrinks_a_closed_star(rng, n):
    """A hand that takes a client out of the least closed star.

    Hub ``a`` opens for 1 and reaches ``c`` at 5, every other client but
    ``d`` at 2.  ``f``'s star is ``c`` and ``d`` at 0, for 20: ratio 10,
    the least closed entry, so ``c`` is handed — and ``f`` now costs 20
    for ``d`` alone, above ``g``, which opens for 15 with ``d``.  Unless
    the hand marks ``f`` stale it opens on its old ratio instead of ``g``.
    """
    n = max(n, 5)
    a, c, d, f, g = rng.permutation(n)[:5]
    connection = np.full((n, n), 10.0**4)
    connection[a] = 2.0
    connection[a, a], connection[a, c], connection[a, d] = 0.0, 5.0, 10.0**4
    connection[f, c] = connection[f, d] = connection[g, d] = 0.0
    num, den = np.zeros(n), np.zeros(n)
    num[[a, f, g]], den[[a, f, g]] = [1.0, 20.0, 15.0], 1.0
    scale = 2 ** int(rng.integers(0, 4))
    return scale * num, den, scale * connection


def _stale_bound_at_the_top(rng, n):
    """A stale closed bound equal to the dearest open cost, and exact.

    ``b`` opens free and reaches ``a``'s client and ``x`` at ``c``: its
    star is ``a``'s client alone (the lower id of the tie).  ``a`` opens first, for 1, with that
    client, and reaches ``x`` at ``c`` and the rest at ``c - 1``.  ``b``
    is left stale at ``c`` — no lower than the dearest open cost, so not
    refreshed — while it really costs ``c`` for ``x``.  The hand must
    stop below the bound, not below the least exact closed ratio: ``x``
    ties ``b``, which comes first in index order and opens with it.
    """
    n = max(n, 4)
    b, a, x = sorted(rng.choice(n, size=3, replace=False))
    c = int(rng.integers(3, 10**4))
    connection = np.full((n, n), 10.0**6)
    connection[a] = c - 1
    connection[a, a], connection[a, x] = 0.0, c
    connection[b, a] = connection[b, x] = c
    num, den = np.zeros(n), np.zeros(n)
    num[a], den[a], den[b] = 1.0, 1.0, 1.0
    return num, den, connection


def _twin_replicas(rng, n):
    """Two open replicas at the same cost from each handed client: the
    assignment's lowest-index tie-break decides, not the hand's order."""
    n = max(n, 5)
    a, b = rng.choice(n, size=2, replace=False)
    connection = np.full((n, n), 10.0**4)
    np.fill_diagonal(connection, 0.0)
    shared = rng.integers(2, 30, size=n).astype(float)
    connection[a] = connection[b] = shared
    connection[a, a] = connection[b, b] = 0.0
    num = np.full(n, 1000.0)
    num[a], num[b] = 1.0, float(rng.integers(1, 3))
    return num, np.ones(n), connection


class TestCertainRoundsEquivalence:
    """The rounds taken at once (a run of one-client stars; the clients a
    hand step gives the open set) decide as the exact textbook greedy does.

    Each family builds instances that make its rule fire — the solver's
    counter proves it did — around the edge the rule's argument rests on.
    """

    @staticmethod
    def _replay(build, seed, size, steps):
        rng = np.random.default_rng(seed)
        num, den, connection = build(rng, size)
        solver = GreedySolver()
        for _ in range(steps):
            problem = _problem(num, den, connection)
            _assert_solves_eq3(solver.solve(problem), problem)
            # Drift one opening cost by the least step its denominator
            # allows, as the allocator's loads do between placements.
            num = num.copy()
            num[rng.integers(0, size)] += rng.integers(-2, 3)
            np.maximum(num, 0.0, out=num)
        return solver

    @pytest.mark.parametrize(
        "build",
        [
            _near_ties,
            _inside_the_old_band,
            _shared_singletons,
            _short_rows,
            _zero_diagonal,
            _stale_beside_the_run,
            _bound_ties_a_price,
        ],
        ids=[
            "near-ties",
            "inside-the-old-band",
            "shared-client",
            "rows-run-out",
            "zero-diagonal",
            "stale-beside-the-run",
            "bound-ties-a-price",
        ],
    )
    @settings(max_examples=40, deadline=None)
    @given(certain_round_instances())
    def test_singleton_batches_match_greedy_exactly(self, build, instance):
        solver = self._replay(build, *instance)
        assert solver.batches > 0

    @pytest.mark.parametrize(
        "build",
        [
            _hand_at_a_tie,
            _stale_bound_lifted,
            _unreachable_from_the_open_set,
            _hand_empties_the_rest,
            _hand_shrinks_a_closed_star,
            _stale_bound_at_the_top,
            _twin_replicas,
        ],
        ids=[
            "tie-is-not-handed",
            "stale-bound-lifted",
            "inf-clients",
            "hand-empties-the-rest",
            "hand-shrinks-a-closed-star",
            "stale-bound-at-the-top",
            "twin-replicas",
        ],
    )
    @settings(max_examples=40, deadline=None)
    @given(certain_round_instances())
    def test_hand_steps_match_greedy_exactly(self, build, instance):
        solver = self._replay(build, *instance)
        assert solver.hand_steps > 0

    @settings(max_examples=60, deadline=None)
    @given(
        certain_round_instances(),
        st.sampled_from([1, 3, 61, 1000, 4096, 10000, 12345]),
        st.sampled_from([1, 3, 7, 250]),
        st.integers(min_value=-2, max_value=2),
    )
    def test_tail_exit_at_a_tie_matches_the_spec(
        self, instance, reuse_cost, den, steps
    ):
        # Facility ``a`` opens on its own clients and reaches every other
        # client at ``reuse_cost``; closed facility ``b``'s one-client star
        # costs ``reuse_cost`` give or take ``steps / den`` — exactly the
        # edge of the hand step's all-clients case (the tail exit), a tie
        # included — and then 1 above it.
        seed, size, _ = instance
        rng = np.random.default_rng(seed)
        a, b = rng.choice(size, size=2, replace=False)
        own = rng.choice(size, size=int(rng.integers(1, size - 1)), replace=False)
        lone = rng.choice(np.setdiff1d(np.arange(size), own))
        connection = np.full((size, size), np.inf)
        connection[a] = reuse_cost
        connection[a, own] = 0.0
        connection[b] = 10**6
        connection[b, lone] = 0.0
        solver = GreedySolver()
        near = max(reuse_cost * den + steps, 0)
        for b_num, b_den in ((near, den), (reuse_cost + 1, 1)):
            num, opening_den = np.zeros(size), np.zeros(size)
            num[a], opening_den[a] = 1.0, 2.0
            num[b], opening_den[b] = b_num, b_den
            problem = _problem(num, opening_den, connection)
            _assert_solves_eq3(solver.solve(problem), problem)
        assert solver.hand_steps > 0


# -- RDC: Eq. 2 exactly ----------------------------------------------------------------


class TestExactRdc:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        size=st.integers(min_value=1, max_value=12),
        unreachable=st.floats(0.0, 0.6),
        integer_hops=st.booleans(),
    )
    def test_rdc_is_eq2_exactly(self, seed, size, unreachable, integer_hops):
        rng = np.random.default_rng(seed)
        hops = rng.integers(0, 8, size=(size, size))
        hops[rng.random((size, size)) < unreachable] = UNREACHABLE
        if not integer_hops:
            hops = hops.astype(float)
        before = hops.copy()
        ranges = rng.integers(0, 61, size=size)
        ranges[rng.random(size) < 0.2] = 0
        actual = range_distance_costs(hops, ranges.astype(float))
        assert actual.dtype == np.float64
        # A double equals a Fraction only when it is that rational exactly.
        assert actual.tolist() == spec.rdc(hops.astype(int).tolist(), ranges.tolist())
        assert np.array_equal(hops, before)  # the input is never written


# -- Routing: vectorised edges + cached hop matrix vs reference ------------------------


def _reference_graph(positions, comm_range):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(positions)))
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if positions[i].distance_to(positions[j]) <= comm_range:
                graph.add_edge(i, j)
    return graph


def _reference_hop_matrix(graph, n):
    matrix = np.full((n, n), -1, dtype=np.int64)
    for source, lengths in nx.all_pairs_shortest_path_length(graph):
        for target, hops in lengths.items():
            matrix[source, target] = hops
    return matrix


class TestRoutingCacheEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=40),
    )
    def test_edges_and_hops_match_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        positions = random_positions(n, rng)
        topology = Topology(positions)
        reference = _reference_graph(positions, topology.comm_range)
        assert topology.edges() == list(reference.edges)
        assert (
            topology.hop_matrix() == _reference_hop_matrix(reference, n)
        ).all()

    def test_boundary_distance_matches_scalar_definition(self):
        # Two nodes exactly comm_range apart: an edge by the scalar
        # ``<=`` definition; the banded vector path must agree.
        positions = [Position(0.0, 0.0), Position(70.0, 0.0), Position(200.0, 200.0)]
        topology = Topology(positions, comm_range=70.0)
        assert (0, 1) in topology.edges()
        just_outside = [
            Position(0.0, 0.0),
            Position(float(np.nextafter(70.0, 71.0)), 0.0),
        ]
        assert (0, 1) not in Topology(just_outside, comm_range=70.0).edges()

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=3, max_value=25),
        st.integers(min_value=1, max_value=4),
    )
    def test_mobility_and_churn_keep_reference_equality(self, seed, n, epochs):
        rng = np.random.default_rng(seed)
        positions = random_positions(n, rng)
        topology = Topology(positions)
        for _ in range(epochs):
            action = rng.integers(0, 3)
            if action == 0:  # small jitter — often leaves the edge set alone
                positions = [
                    Position(p.x + float(rng.uniform(-1, 1)), p.y)
                    for p in positions
                ]
                topology.update_positions(positions)
            elif action == 1:  # full resample
                positions = random_positions(n, rng)
                topology.update_positions(positions)
            else:  # churn round-trip
                node = int(rng.integers(0, n))
                topology.remove_node(node)
                topology.restore_node(node)
            reference = _reference_graph(positions, topology.comm_range)
            assert sorted(topology.edges()) == sorted(reference.edges)
            assert (
                topology.hop_matrix() == _reference_hop_matrix(reference, n)
            ).all()

    def test_unchanged_epoch_reuses_cached_matrix(self):
        rng = np.random.default_rng(4)
        positions = random_positions(12, rng)
        topology = Topology(positions)
        before = topology.hop_matrix()
        topology.update_positions(positions)  # same coordinates
        assert topology.hop_matrix() is before  # identity: nothing recomputed

    def test_offline_node_forces_epoch_rebuild(self):
        rng = np.random.default_rng(6)
        positions = random_positions(10, rng)
        topology = Topology(positions)
        topology.remove_node(0)
        topology.update_positions(positions)  # rebuilt, node 0 still offline
        reference = _reference_graph(positions, topology.comm_range)
        reference.remove_edges_from(list(reference.edges(0)))
        assert sorted(topology.edges()) == sorted(reference.edges)


def _assert_hops_like_networkx(topology):
    """The hop matrix against networkx BFS over the topology's own edges."""
    n = topology.node_count
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(topology.edges())
    matrix = topology.hop_matrix()
    assert matrix.dtype == np.int64 and matrix.shape == (n, n)
    assert not matrix.flags.writeable
    assert (np.diag(matrix) == 0).all()
    assert (matrix == _reference_hop_matrix(graph, n)).all()


class TestBitsetHopMatrix:
    """``_compute_hop_matrix`` packs 64 sources to a word: word edges,
    isolated and offline nodes, several components, and an epoch followed
    by a churn removal and restore, all against networkx."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0, 1, 63, 64, 65, 130]),
        st.sampled_from([60.0, 300.0, 900.0]),
        st.lists(st.integers(min_value=0, max_value=129), max_size=6),
    )
    def test_matches_networkx_through_an_epoch_and_churn(
        self, seed, n, field_size, offline
    ):
        rng = np.random.default_rng(seed)
        topology = Topology(random_positions(n, rng, field_size))
        _assert_hops_like_networkx(topology)
        for node in offline:
            if node < n:
                topology.remove_node(node)
        _assert_hops_like_networkx(topology)
        topology.update_positions(random_positions(n, rng, field_size))
        _assert_hops_like_networkx(topology)
        if n:
            node = int(rng.integers(0, n))
            topology.remove_node(node)
            _assert_hops_like_networkx(topology)
            topology.restore_node(node)
            _assert_hops_like_networkx(topology)

    def test_disconnected_field_has_several_components(self):
        rng = np.random.default_rng(8)
        topology = Topology(random_positions(65, rng, 900.0))
        assert len(topology.components()) > 1
        assert any(len(component) == 1 for component in topology.components())
        _assert_hops_like_networkx(topology)
        assert (topology.hop_matrix() == UNREACHABLE).any()


class _NetworkxTopology:
    """The ``nx.Graph`` that ``Topology`` and ``PartitionInjector`` kept
    before the topology owned its adjacency, edited by the same rules: the
    oracle for which of several equally short routes is taken."""

    def __init__(self, positions, comm_range):
        self.comm_range = comm_range
        self.offline = set()
        self.cut = []
        self._build(positions)

    def _build(self, positions):
        self.positions = list(positions)
        self.graph = _reference_graph(positions, self.comm_range)
        self.full_edges = list(self.graph.edges)
        for node in self.offline:
            self.graph.remove_edges_from(list(self.graph.edges(node)))

    def update_positions(self, positions):
        full_edges = list(_reference_graph(positions, self.comm_range).edges)
        if self.offline or full_edges != self.full_edges:
            self._build(positions)
        else:
            self.positions = list(positions)

    def remove_node(self, node):
        self.graph.remove_edges_from(list(self.graph.edges(node)))
        self.offline.add(node)

    def restore_node(self, node):
        self.offline.discard(node)
        for other, position in enumerate(self.positions):
            if other != node and (
                self.positions[node].distance_to(position) <= self.comm_range
            ):
                self.graph.add_edge(node, other)

    def partition(self, group_a, group_b):
        set_a, set_b = set(group_a), set(group_b)
        self.cut = [
            (u, v)
            for u, v in self.graph.edges
            if (u in set_a and v in set_b) or (u in set_b and v in set_a)
        ]
        self.graph.remove_edges_from(self.cut)

    def heal(self):
        self.graph.add_edges_from(self.cut)
        self.cut = []

    def shortest_path(self, source, target):
        try:
            return nx.shortest_path(self.graph, source, target)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None


def _assert_routes_like_networkx(topology, reference, rng):
    n = topology.node_count
    graph = reference.graph
    assert topology.edges() == list(graph.edges)
    if n <= 10:
        endpoints = list(range(n))
    else:
        endpoints = rng.choice(n, size=8, replace=False).tolist()
    # Every sampled endpoint routes to and from every other, and the whole
    # set twice: later queries read route trees earlier ones grew.
    pairs = [(s, t) for s in endpoints for t in endpoints]
    hops = topology.hop_matrix()
    for source, target in pairs + pairs[::-1]:
        path = topology.shortest_path(source, target)
        assert path == reference.shortest_path(source, target)
        assert hops[source, target] == (
            UNREACHABLE if path is None else len(path) - 1
        )
    for stranger in (-1, n):
        assert topology.shortest_path(stranger, 0) is None
        assert topology.shortest_path(0, stranger) is None
    components = [sorted(c) for c in nx.connected_components(graph)]
    assert topology.components() == sorted(components, key=lambda c: (-len(c), c))
    assert topology.is_connected() == nx.is_connected(graph)
    source = int(rng.integers(0, n))
    assert topology.reachable_from(source) == sorted(
        nx.node_connected_component(graph, source)
    )
    subset = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist()
    assert topology.is_connected_subset(subset) == nx.is_connected(
        graph.subgraph(subset)
    )


class TestRoutesMatchNetworkx:
    """Same ``List[int]`` as ``nx.shortest_path`` for every graph the
    mutators can produce — not only the same length."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=60),
        st.sampled_from([120.0, 300.0, 700.0]),  # dense / the paper's / mostly disconnected
        st.integers(min_value=1, max_value=8),
    )
    def test_every_route_after_every_mutation(self, seed, n, field_size, steps):
        rng = np.random.default_rng(seed)
        positions = random_positions(n, rng, field_size)
        topology = Topology(positions)
        reference = _NetworkxTopology(positions, topology.comm_range)
        injector = PartitionInjector(
            Network(EventEngine(seed=seed), topology, ChannelModel(bandwidth=None))
        )
        _assert_routes_like_networkx(topology, reference, rng)
        for _ in range(steps):
            action = int(rng.integers(0, 6))
            if action == 0:  # small jitter — often leaves the edge set alone
                positions = [
                    Position(p.x + float(rng.uniform(-1, 1)), p.y) for p in positions
                ]
                topology.update_positions(positions)
                reference.update_positions(positions)
            elif action == 1:  # full resample
                positions = random_positions(n, rng, field_size)
                topology.update_positions(positions)
                reference.update_positions(positions)
            elif action == 2:
                node = int(rng.integers(0, n))
                topology.remove_node(node)
                reference.remove_node(node)
            elif action == 3:  # also restores nodes that never left
                node = int(rng.integers(0, n))
                topology.restore_node(node)
                reference.restore_node(node)
            elif injector.active:
                injector.heal()
                reference.heal()
            else:
                west = rng.random(n) < 0.5
                group_a = np.flatnonzero(west).tolist()
                group_b = np.flatnonzero(~west).tolist()
                injector.partition(group_a, group_b)
                reference.partition(group_a, group_b)
            _assert_routes_like_networkx(topology, reference, rng)

    def test_paper_density_400_nodes_across_every_mutator(self):
        # scale_n400's shape: 400 nodes in the paper's 300 m field at 70 m
        # range; 2 000 pairs over 100 endpoints per state, so every
        # endpoint's tree serves about 40 routes.
        rng = np.random.default_rng(20190707)
        positions = connected_random_positions(400, rng)
        topology = Topology(positions)
        reference = _NetworkxTopology(positions, topology.comm_range)
        injector = PartitionInjector(
            Network(EventEngine(seed=0), topology, ChannelModel(bandwidth=None))
        )
        endpoints = rng.choice(400, size=100, replace=False)

        def assert_routes_match():
            unreachable = 0
            for source, target in rng.choice(endpoints, size=(2000, 2)).tolist():
                path = topology.shortest_path(source, target)
                assert path == reference.shortest_path(source, target)
                unreachable += path is None
            return unreachable

        assert assert_routes_match() == 0
        west = [node for node, p in enumerate(positions) if p.x < 150.0]
        east = [node for node, p in enumerate(positions) if p.x >= 150.0]
        injector.partition(west, east)
        reference.partition(west, east)
        assert assert_routes_match() > 0
        injector.heal()
        reference.heal()
        assert assert_routes_match() == 0
        hub = max(endpoints.tolist(), key=lambda node: len(topology.neighbors(node)))
        topology.remove_node(hub)
        reference.remove_node(hub)
        assert assert_routes_match() > 0
        topology.restore_node(hub)
        reference.restore_node(hub)
        assert assert_routes_match() == 0


# -- Delivery batching: engine + transport + gossip ------------------------------------


def _unbatch(engine):
    """Make ``engine`` schedule every batched call as its own event.

    What transport and gossip did per delivery before they batched: the
    un-batched side of the differential tests below.
    """

    def call_at_batch(when, calls):
        for callback, args in calls:
            engine.call_at(when, callback, *args)

    engine.call_at_batch = call_at_batch


class TestBatchedDeliveryEquivalence:
    def test_batched_calls_execute_in_scheduled_order(self):
        engine = EventEngine(seed=0)
        order = []
        engine.call_at(1.0, order.append, "pre")
        engine.call_at_batch(
            1.0, [(order.append, ("a",)), (order.append, ("b",)), (order.append, ("c",))]
        )
        engine.call_at(1.0, order.append, "post")
        engine.run()
        assert order == ["pre", "a", "b", "c", "post"]
        assert engine.events_processed == 5  # each batched call counted

    def test_batch_cancellation_cancels_every_call(self):
        engine = EventEngine(seed=0)
        order = []
        handle = engine.call_at_batch(1.0, [(order.append, ("a",)), (order.append, ("b",))])
        handle.cancel()
        engine.run()
        assert order == []

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=4, max_value=16),
    )
    def test_broadcast_batched_equals_unbatched(self, seed, n):
        outcomes = []
        for batched in (False, True):
            engine = EventEngine(seed=seed)
            if not batched:
                _unbatch(engine)
            positions = random_positions(n, engine.np_rng)
            topology = Topology(positions)
            network = Network(engine, topology, ChannelModel(loss_probability=0.05))
            deliveries = []
            for node in range(n):
                network.register(
                    node,
                    lambda s, p, c, node=node: deliveries.append((engine.now, node, p)),
                )
            network.broadcast(0, "blk", 1000, "block")
            network.send(0, n - 1, "uni", 500, "item") if n > 1 else None
            engine.run()
            outcomes.append(
                (deliveries, network.snapshot(), engine.np_rng.random())
            )
        unbatched, batched_run = outcomes
        assert batched_run[0] == unbatched[0]  # same deliveries, times, order
        assert batched_run[1] == unbatched[1]  # same traffic accounting
        assert batched_run[2] == unbatched[2]  # same RNG stream position

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=4, max_value=14),
    )
    def test_gossip_batched_equals_unbatched(self, seed, n):
        outcomes = []
        for batched in (False, True):
            engine = EventEngine(seed=seed)
            if not batched:
                _unbatch(engine)
            positions = random_positions(n, engine.np_rng)
            topology = Topology(positions)
            fabric = GossipFabric(engine, topology, ChannelModel(loss_probability=0.1))
            receipts = []
            fabric.on_receive(
                lambda node, origin, payload: receipts.append((engine.now, node))
            )
            message_id = fabric.originate(0, "gossip", 800, "item")
            engine.run()
            outcomes.append(
                (
                    receipts,
                    sorted(fabric.nodes_reached(message_id)),
                    fabric.trace.snapshot(),
                    engine.np_rng.random(),
                )
            )
        assert outcomes[0] == outcomes[1]


# -- PoS: exact-integer mining delay vs the Fraction oracle -----------------------------


positive_floats = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def _mining_delay_reference(hit, stake, stored, amendment):
    """The original Fraction-based ``mining_delay`` (differential oracle)."""
    rate = stake * stored * amendment
    if rate <= 0:
        return None
    if hit <= 0:
        return 1
    exact_rate = Fraction(stake) * Fraction(stored) * Fraction(amendment)
    return max(1, math.ceil(Fraction(hit) / exact_rate))


class TestVectorisedPosEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        positive_floats,
        st.integers(min_value=0, max_value=500),
        positive_floats,
    )
    def test_mining_delay_matches_fraction_reference(
        self, hit, stake, stored, amendment
    ):
        assert mining_delay(hit, stake, float(stored), amendment) == (
            _mining_delay_reference(hit, stake, float(stored), amendment)
        )

    def test_huge_hit_stays_exact(self):
        # >2^53 hit: float division would be ulps off; the integer path
        # must return the true earliest satisfying second (Eq. 9 holds at
        # ``delay`` and fails at ``delay - 1``), matching the reference.
        hit, stake, stored, amendment = 2**64 - 1, 3.0, 7.0, 1.25e-15
        delay = mining_delay(hit, stake, stored, amendment)
        assert delay == _mining_delay_reference(hit, stake, stored, amendment)
        rate = Fraction(stake) * Fraction(stored) * Fraction(amendment)
        assert Fraction(hit) <= rate * delay
        assert delay == 1 or Fraction(hit) > rate * (delay - 1)


def _outcome(function, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return "returned", function(*args)
    except Exception as error:  # noqa: BLE001 — the exception is the outcome
        return "raised", type(error), str(error)


#: A factor of Eq. 8: integer or float (stake and stored count items as
#: ints in places), zero, subnormal, or large.
eq9_factors = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
)
#: B: the usual range, subnormal, and 2⁶⁰-scale (M / ((n+1)·t0·Ū) for a
#: 2⁶⁴ modulus and a small cluster).
eq9_amendments = st.one_of(
    positive_floats,
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.floats(min_value=2.0**59, max_value=2.0**61),
)
eq9_elapsed = st.one_of(
    st.integers(min_value=0, max_value=10**5).map(float),
    st.floats(min_value=0.0, max_value=1e5),
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


class TestExactEq9Equivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        eq9_factors,
        eq9_factors,
        eq9_elapsed,
        eq9_amendments,
        st.sampled_from((-1, 0, 1)),
    )
    def test_verdict_at_the_target_boundary(
        self, stake, stored, elapsed, amendment, step
    ):
        target = (
            Fraction(stake) * Fraction(stored) * Fraction(elapsed) * Fraction(amendment)
        )
        hit = max(0, math.floor(target) + step)
        args = (hit, stake, stored, elapsed, amendment)
        assert satisfies_target(*args) == reference_satisfies_target(*args)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        eq9_factors,
        eq9_factors,
        st.floats(min_value=-1e5, max_value=1e5),
        eq9_amendments,
    )
    def test_verdict_for_any_hit(self, hit, stake, stored, elapsed, amendment):
        args = (hit, stake, stored, elapsed, amendment)
        assert _outcome(satisfies_target, *args) == _outcome(
            reference_satisfies_target, *args
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.tuples(eq9_factors, eq9_factors, eq9_elapsed, eq9_amendments),
        st.integers(min_value=0, max_value=3),
        non_finite,
    )
    def test_nan_and_infinity_raise_as_before(self, hit, factors, position, bad):
        values = list(factors)
        values[position] = bad
        args = (hit, *values)
        outcome = _outcome(satisfies_target, *args)
        assert outcome[0] == "raised"
        assert outcome == _outcome(reference_satisfies_target, *args)


class _Kind(IntEnum):
    ZERO = 0
    SEVEN = 7
    BELOW = -3
    WIDE = 2**70


class _Label(str):
    pass


#: Every field shape the hashing surface meets, valid or not.
hash_fields = st.one_of(
    st.text(),
    st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), min_size=1),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.just(0),
    st.binary(),
    st.sampled_from(list(_Kind)),
    st.text().map(_Label),
    st.booleans(),
    st.floats(),
    st.binary().map(bytearray),
    st.none(),
)


class TestExactTypeHashEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(hash_fields, max_size=14))
    def test_hash_items_equals_the_per_field_loop(self, fields):
        assert _outcome(hash_items, *fields) == _outcome(reference_hash_items, *fields)

    @pytest.mark.parametrize(
        "field", [True, False, 1.5, bytearray(b"x"), None, "\ud800", "a\udfffb"]
    )
    def test_rejected_fields_raise_as_before(self, field):
        outcome = _outcome(hash_items, "block", 3, field)
        assert outcome[0] == "raised"
        assert outcome == _outcome(reference_hash_items, "block", 3, field)

    def test_subclasses_encode_as_their_base_value(self):
        fields = (_Kind.BELOW, _Kind.WIDE, _Label("poshash"))
        assert hash_items(*fields) == reference_hash_items(*fields)
        assert hash_items(*fields) == hash_items(-3, 2**70, "poshash")


# -- End to end: the single path vs the recorded reference run --------------------------


#: Four seeded scenarios: steady state, fast mobility, churn under load,
#: and a churning cluster that prunes (144 blocks, horizon moving to 80,
#: items expiring below it, anchored chain adoption).
SCENARIOS = {
    "steady": dict(node_count=8, seed=5, duration_minutes=4.0),
    "mobile": dict(
        node_count=10, seed=11, duration_minutes=4.0, mobility_epoch_minutes=0.5
    ),
    "churn": dict(
        node_count=12,
        seed=3,
        duration_minutes=4.0,
        churn=ChurnSpec(
            node_fraction=0.25, events_per_node=1.0, mean_downtime_seconds=30.0
        ),
    ),
    "lifecycle": dict(
        node_count=10,
        seed=7,
        duration_minutes=25.0,
        churn=ChurnSpec(
            node_fraction=0.3, events_per_node=2.0, mean_downtime_seconds=60.0
        ),
        expected_block_interval=10.0,
        checkpoint_interval=8,
        checkpoint_lag=8,
        lifecycle=LifecycleSpec(retain_blocks=64),
        default_valid_time_minutes=5.0,
    ),
}

#: Each scenario's fingerprint, recorded from the textbook greedy with
#: un-batched delivery at the last commit that had those as run modes
#: (``lifecycle``: at the last commit with one private ledger per node).
PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "scenario_digests.json").read_text()
)


class TestEndToEndDigestEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fastpath_run_is_digest_identical(self, name):
        chain_digest, ledger_digest, verdict = digest_run(**SCENARIOS[name])
        pinned = PINNED[name]
        assert chain_digest == pinned["chain_digest"], f"{name}: chain diverged"
        assert ledger_digest == pinned["ledger_digest"], f"{name}: ledger diverged"
        verdict_sha256 = hashlib.sha256(
            json.dumps(verdict, sort_keys=True).encode()
        ).hexdigest()
        assert verdict_sha256 == pinned["verdict_sha256"], f"{name}: verdict diverged"
