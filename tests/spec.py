"""The placement equations in exact arithmetic: the one correctness oracle.

Eq. 1–6 of the paper (Section IV-A) written as directly as they read, in
:class:`fractions.Fraction`, with ``math.inf`` for ∞.  Nothing here is
fast or clever; tests compare the production code against it:

* :func:`fdc` — Eq. 1, ``f_i = W(i) / (W_tol(i) − W(i))``;
* :func:`rdc` — Eq. 2, ``c_ij = d(i,j) + range(i) + range(j)``, 0 on the
  diagonal, ∞ across a partition;
* :func:`opening_costs` / :func:`connection_costs` — a
  :class:`~repro.facility.problem.UFLProblem` read back as rationals;
* :func:`objective` — Eq. 3, the cost of a solution;
* :func:`is_solution` — Eq. 4–6, every client served by an open facility;
* :func:`star` / :func:`greedy` — the textbook greedy over Eq. 3: every
  round, each facility's best star (its unassigned reachable clients in
  (cost, client) order, the shortest prefix of least average cost), the
  least such average over facilities with the lowest index on ties, and
  at the end every client to its cheapest open facility, again the
  lowest index on ties;
* :func:`optimum` — the least Eq. 3 over every open set, each client at
  its cheapest open facility: the exact optimum the greedy's
  approximation bound is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.simnet.topology import UNREACHABLE

#: A cost: an exact rational, or ``math.inf``.
Cost = Union[Fraction, float]


def fdc(used: int, total: int) -> Cost:
    """Eq. 1: ``W / (W_tol − W)``, ∞ for a full node."""
    remaining = Fraction(total) - Fraction(used)
    return math.inf if remaining == 0 else Fraction(used) / remaining


def rdc(hops: Sequence[Sequence[int]], ranges: Sequence[int]) -> List[List[Cost]]:
    """Eq. 2 over every node pair."""
    n = len(ranges)
    return [
        [
            Fraction(0)
            if i == j
            else math.inf
            if hops[i][j] == UNREACHABLE
            else Fraction(int(hops[i][j])) + Fraction(ranges[i]) + Fraction(ranges[j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def _exact(value: float) -> Cost:
    """A problem's cost as a Python number: ``int`` when whole (exact, and
    cheap to compare), else ``Fraction``; ``inf`` stays."""
    if value == math.inf:
        return value
    return int(value) if float(value).is_integer() else Fraction(value)


def opening_costs(problem) -> List[Cost]:
    """Each facility's opening cost: numerator over denominator, ∞ at 0."""
    return [
        Fraction(int(num), int(den)) if den else math.inf
        for num, den in zip(problem.opening_num, problem.opening_den)
    ]


def connection_costs(problem) -> List[List[Cost]]:
    return [[_exact(c) for c in row] for row in problem.connection_costs.tolist()]


def is_solution(problem, open_facilities, assignment) -> bool:
    """Eq. 4–6: each client assigned once, to an open facility that can
    open and that it reaches."""
    opening = opening_costs(problem)
    connection = connection_costs(problem)
    return (
        len(assignment) == problem.num_clients
        and bool(open_facilities)
        and all(opening[f] != math.inf for f in open_facilities)
        and all(
            f in open_facilities and connection[f][j] != math.inf
            for j, f in enumerate(assignment)
        )
    )


def objective(problem, open_facilities, assignment) -> Cost:
    """Eq. 3: opening costs of the open set plus every client's connection."""
    opening = opening_costs(problem)
    connection = connection_costs(problem)
    return sum((opening[f] for f in open_facilities), Fraction(0)) + sum(
        (connection[f][j] for j, f in enumerate(assignment)), Fraction(0)
    )


def star(
    opening: Cost, row: Sequence[Cost], unassigned: Set[int]
) -> Optional[Tuple[Fraction, List[int]]]:
    """The best star of one facility: ``(average, clients)``, or ``None``
    when it cannot open or reaches no unassigned client."""
    if opening == math.inf:
        return None
    reachable = sorted((row[j], j) for j in unassigned if row[j] != math.inf)
    best: Optional[Tuple[Fraction, int]] = None
    total = opening
    for k, (cost, _) in enumerate(reachable, start=1):
        total += cost
        average = total / k
        if best is None or average < best[0]:
            best = (average, k)
    if best is None:
        return None
    return best[0], [j for _, j in reachable[: best[1]]]


def assign(problem, open_facilities: Sequence[int]) -> Tuple[int, ...]:
    """Each client to its cheapest open facility, the lowest index on ties."""
    connection = connection_costs(problem)
    ordered = sorted(open_facilities)
    return tuple(
        min(ordered, key=lambda f: (connection[f][j], f))
        for j in range(problem.num_clients)
    )


def greedy(problem) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The textbook greedy: ``(open facilities, sorted; assignment)``.

    Raises ``ValueError`` when some client cannot be served.
    """
    opening = opening_costs(problem)
    connection = connection_costs(problem)
    unassigned = set(range(problem.num_clients))
    opened: Set[int] = set()
    while unassigned:
        pick: Optional[Tuple[Fraction, int, List[int]]] = None
        for f in range(problem.num_facilities):
            cost = Fraction(0) if f in opened else opening[f]
            best = star(cost, connection[f], unassigned)
            if best is not None and (pick is None or best[0] < pick[0]):
                pick = (best[0], f, best[1])
        if pick is None:
            raise ValueError("infeasible: a client has no reachable facility")
        _, f, clients = pick
        opened.add(f)
        unassigned.difference_update(clients)
    open_facilities = tuple(sorted(opened))
    return open_facilities, assign(problem, open_facilities)


def optimum(problem) -> Cost:
    """The least Eq. 3 over every nonempty open set of facilities that can
    open, each with :func:`assign`'s assignment (for a fixed open set the
    cheapest one).  Exponential: for instances of a few facilities.

    Raises ``ValueError`` when some client cannot be served.
    """
    opening = opening_costs(problem)
    can_open = [f for f in range(problem.num_facilities) if opening[f] != math.inf]
    best = min(
        (
            objective(problem, subset, assign(problem, subset))
            for size in range(1, len(can_open) + 1)
            for subset in combinations(can_open, size)
        ),
        default=math.inf,
    )
    if best == math.inf:
        raise ValueError("infeasible: a client has no reachable facility")
    return best
