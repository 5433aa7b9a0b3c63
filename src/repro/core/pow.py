"""Proof-of-Work baseline miner (the Fig. 6 comparator).

The paper's PoW experiment sets "the difficulty of PoW as 4 zeros at the
beginning of the block hash" with an average mining time of 25 seconds on
the phone.  A difficulty of ``d`` leading hex zeros succeeds per attempt
with probability ``16^-d``, so the attempt count is geometric with mean
``16^d`` — 65 536 at the paper's difficulty 4.

:meth:`PowMiner.mine_block` *samples* that attempt count from the
simulation RNG instead of running a difficulty-4 SHA-256 loop: the energy
is attempts × per-hash joules either way, and the loop would only waste
wall-clock time.  :func:`repro.sim.scenarios.mining_session` drives it
until the battery is spent (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.meter import EnergyMeter
from repro.obs import runtime as _obs

#: Paper's PoW difficulty: leading hex zeros of the block hash.
PAPER_POW_DIFFICULTY = 4

#: Hash rate matching the paper's setup: difficulty 4 (65 536 expected
#: attempts) at a 25 s average block time → ≈2 621 hashes/second, consistent
#: with SHA-256 in a react-native JS runtime on a 2017 handset.
PAPER_HASH_RATE = 16**PAPER_POW_DIFFICULTY / 25.0


def pow_difficulty_for(
    target_interval: float, node_count: int, hash_rate: float
) -> float:
    """The (fractional) difficulty giving the network the target block time.

    With ``node_count`` independent miners at ``hash_rate`` attempts/s, the
    network finds a block every ``16^d / (n · rate)`` seconds on average.
    Real chains retune an integer difficulty periodically; the simulation
    accepts fractional difficulties (the success probability ``16^-d`` is
    continuous), which is equivalent to Bitcoin's fractional target.
    """
    if target_interval <= 0 or node_count < 1 or hash_rate <= 0:
        raise ValueError("interval, node count, and hash rate must be positive")
    import math

    return math.log(target_interval * node_count * hash_rate, 16.0)


@dataclass
class PowBlockResult:
    """Outcome of one (possibly sampled) PoW mining run."""

    attempts: int
    duration_seconds: float
    energy_joules: float
    battery_remaining_percent: float


class PowMiner:
    """A PoW miner on one edge device, billing energy per hash attempt."""

    def __init__(
        self,
        meter: EnergyMeter,
        difficulty: int = PAPER_POW_DIFFICULTY,
        hash_rate: float = PAPER_HASH_RATE,
    ):
        if difficulty < 0:
            raise ValueError("difficulty cannot be negative")
        if hash_rate <= 0:
            raise ValueError("hash rate must be positive")
        self.meter = meter
        self.difficulty = difficulty
        self.hash_rate = hash_rate
        self.blocks_mined = 0

    @property
    def success_probability(self) -> float:
        return 16.0**-self.difficulty

    def mine_block(self, rng: np.random.Generator) -> PowBlockResult:
        """Mine one block with a sampled geometric attempt count."""
        attempts = int(rng.geometric(self.success_probability))
        energy = self.meter.charge_pow_hashes(attempts)
        self.blocks_mined += 1
        if _obs.is_enabled():
            _obs.add("pow.attempts", attempts)
            _obs.observe("pow.attempts_per_block", attempts)
            _obs.observe("pow.energy_joules_per_block", energy)
        return PowBlockResult(
            attempts=attempts,
            duration_seconds=attempts / self.hash_rate,
            energy_joules=energy,
            battery_remaining_percent=self.meter.remaining_percent,
        )
