"""The paper's Proof-of-Stake mechanism (Section V).

Mechanism recap:

* Every node derives a **hit** from the previous block's POSHash and its own
  account address (Eq. 7)::

      POSHash(t+1, i) = Hash[POSHash(t) ‖ Account_i]
      h_i = POSHash(t+1, i) mod M

* Every node has a **target value** ``R_i = S_i · Q_i · t · B`` (Eq. 8)
  growing with the seconds ``t`` since the previous block; the first node
  whose ``h_i ≤ R_i`` (Eq. 9) mines the block.

* ``B`` is the **expectation-time amendment** (Eq. 14) keeping the expected
  inter-block time at ``t0``::

      B = M / ((n+1) · t0 · Ū),     Ū = mean(S_i · Q_i)

Everything is verifiable from public chain state: any node can recompute
``h_i``, ``S_i``, ``Q_i`` and ``B`` for any other node and reject a block
whose claim does not hold.

Both mining-time computations are provided: the **analytic** earliest
satisfying second (used by the event-driven simulation) and the paper's
literal **per-second polling loop** (Section V-C, used by the energy meter
and by the test that proves the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.crypto.hashing import hash_items, hash_to_int
from repro.obs import runtime as _obs


def compute_pos_hash(previous_pos_hash_hex: str, account_address: str) -> str:
    """POSHash(t+1, i) = Hash[POSHash(t) ‖ Account_i] (Eq. 7, first line)."""
    return hash_items("poshash", previous_pos_hash_hex, account_address).hex()


def compute_hit(previous_pos_hash_hex: str, account_address: str, modulus: int) -> int:
    """h_i = POSHash(t+1, i) mod M (Eq. 7, second line)."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    return _hit_of(compute_pos_hash(previous_pos_hash_hex, account_address), modulus)


def _hit_of(pos_hash_hex: str, modulus: int) -> int:
    """h_i = POSHash(t+1, i) mod M from a POSHash already in hand, so a
    miner or validator holding it hashes Eq. 7 once."""
    hit = hash_to_int(bytes.fromhex(pos_hash_hex)) % modulus
    if _obs.is_enabled():
        _obs.add("pos.hits_computed")
        _obs.observe("pos.hit_value", hit)
    return hit


def compute_amendment(
    modulus: int, node_count: int, expected_interval: float, mean_u: float
) -> float:
    """The expectation-time amendment B (Eq. 14, taken with equality).

    ``mean_u`` is Ū = (1/n) Σ S_i Q_i.  Raises when no node can mine
    (Ū = 0) because B would be infinite.
    """
    if node_count < 1:
        raise ValueError("need at least one node")
    if expected_interval <= 0:
        raise ValueError("expected interval must be positive")
    if mean_u <= 0:
        raise ValueError("mean stake-storage product must be positive")
    amendment = modulus / ((node_count + 1) * expected_interval * mean_u)
    if _obs.is_enabled():
        _obs.gauge_set("pos.amendment_b", amendment)
    return amendment


def target_value(stake: float, stored: float, elapsed: float, amendment: float) -> float:
    """R_i = S_i · Q_i · t · B (Eq. 8)."""
    if elapsed < 0:
        raise ValueError("elapsed time cannot be negative")
    return stake * stored * elapsed * amendment


def satisfies_target(
    hit: int, stake: float, stored: float, elapsed: float, amendment: float
) -> bool:
    """The mining condition h_i ≤ R_i (Eq. 9).

    Evaluated in exact rational arithmetic: hits are 64-bit integers, and
    a float product can round across the h = R boundary, which would let
    miners and validators disagree about the earliest valid second.
    ``as_integer_ratio`` decomposes each factor exactly (raising on NaN
    and infinity, as ``Fraction`` does), and the comparison
    h_n/h_d ≤ N/D is cross-multiplied over the positive denominators —
    the verdict of ``Fraction(hit) <= Fraction(stake) * ... * Fraction(B)``
    without normalising five Fractions per check.
    """
    if elapsed < 0:
        raise ValueError("elapsed time cannot be negative")
    s_num, s_den = stake.as_integer_ratio()
    q_num, q_den = stored.as_integer_ratio()
    t_num, t_den = elapsed.as_integer_ratio()
    b_num, b_den = amendment.as_integer_ratio()
    h_num, h_den = hit.as_integer_ratio()
    satisfied = (
        h_num * s_den * q_den * t_den * b_den <= s_num * q_num * t_num * b_num * h_den
    )
    if _obs.is_enabled():
        _obs.add("pos.target_checks")
        if satisfied:
            _obs.add("pos.target_hits")
    return satisfied


def _exact_ceil_quotient(hit: int, stake: float, stored: float, amendment: float) -> int:
    """⌈hit / (stake·stored·amendment)⌉ in exact integer arithmetic.

    ``float.as_integer_ratio`` decomposes each factor exactly, so the
    rate is the integer ratio N/D = stake·stored·amendment and the
    ceiling division ``-(-hit·D // N)`` equals
    ``math.ceil(Fraction(hit) / exact_rate)`` — without building Fraction
    objects (which normalise by gcd on every operation) on a path hit
    once per node per block.
    """
    s_num, s_den = stake.as_integer_ratio()
    q_num, q_den = stored.as_integer_ratio()
    b_num, b_den = amendment.as_integer_ratio()
    numerator = s_num * q_num * b_num
    denominator = s_den * q_den * b_den
    return -((-hit * denominator) // numerator)


def mining_delay(hit: int, stake: float, stored: float, amendment: float) -> Optional[int]:
    """Earliest whole second t ≥ 1 at which h_i ≤ S_i·Q_i·t·B.

    This is the closed form of the paper's per-second polling loop
    (Section V-C): the node's target grows linearly each second until it
    crosses the hit.  Returns ``None`` when the node can never mine
    (``S_i·Q_i·B = 0``).

    Exact integer arithmetic throughout: float division of a >2^53 hit
    can be off by many ULPs, which would return a second at which Eq. 9
    does not hold (``tests/property/test_fastpath_equivalence.py`` pins
    this against a Fraction oracle).
    """
    rate = stake * stored * amendment
    if rate <= 0:
        if _obs.is_enabled():
            _obs.add("pos.unmineable")
        return None
    if hit <= 0:
        delay = 1  # the loop checks at t = 1 first
    else:
        delay = max(1, _exact_ceil_quotient(hit, stake, stored, amendment))
    if _obs.is_enabled():
        _obs.add("pos.delays_computed")
        _obs.observe("pos.mining_delay_seconds", delay)
    return delay


def per_second_mining_loop(
    hit: int,
    stake: float,
    stored: float,
    amendment: float,
    max_seconds: int = 1_000_000,
) -> Iterator[Tuple[int, float, bool]]:
    """The literal Algorithm of Section V-C, one tick per second.

    Yields ``(t, R_i, satisfied)`` per second until the condition holds or
    ``max_seconds`` elapses.  Only tests use it: it is the oracle that
    :func:`mining_delay`'s closed form is checked against.
    """
    for t in range(1, max_seconds + 1):
        target = target_value(stake, stored, float(t), amendment)
        satisfied = hit <= target
        _obs.add("pos.poll_ticks")
        yield t, target, satisfied
        if satisfied:
            return


@dataclass(frozen=True)
class MiningClaim:
    """A verifiable statement of why a miner won a block."""

    miner_address: str
    hit: int
    stake: float
    stored: float
    elapsed: float
    amendment: float

    def is_valid(self, previous_pos_hash_hex: str, modulus: int) -> bool:
        """Re-derive the hit and re-check Eq. 9."""
        expected_hit = compute_hit(previous_pos_hash_hex, self.miner_address, modulus)
        if expected_hit != self.hit:
            return False
        return satisfies_target(
            self.hit, self.stake, self.stored, self.elapsed, self.amendment
        )
