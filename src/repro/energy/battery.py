"""Battery model: a joule budget with percent-level reporting.

The Fig. 6 experiment reports *remaining battery percent* after each mined
block; :class:`Battery` tracks exactly that.  Draining past empty clamps at
zero and flips :attr:`Battery.depleted` — miners stop when their battery
dies, which the Fig. 6 sessions rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.profile import GALAXY_S8_BATTERY_JOULES


@dataclass
class Battery:
    """A device battery measured in joules."""

    capacity_joules: float = GALAXY_S8_BATTERY_JOULES
    remaining_joules: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.capacity_joules <= 0:
            raise ValueError("capacity must be positive")
        if self.remaining_joules < 0:
            self.remaining_joules = self.capacity_joules
        if self.remaining_joules > self.capacity_joules:
            raise ValueError("remaining charge cannot exceed capacity")

    @property
    def remaining_percent(self) -> float:
        """Remaining charge as a percentage of capacity (0–100)."""
        return 100.0 * self.remaining_joules / self.capacity_joules

    @property
    def consumed_joules(self) -> float:
        return self.capacity_joules - self.remaining_joules

    @property
    def depleted(self) -> bool:
        return self.remaining_joules <= 0.0

    def drain(self, joules: float) -> float:
        """Consume energy; returns the amount actually drained (clamped)."""
        if joules < 0:
            raise ValueError("cannot drain negative energy")
        drained = min(joules, self.remaining_joules)
        self.remaining_joules -= drained
        return drained

    def recharge_full(self) -> None:
        """Back to 100 % (the paper fully charges the phone before each test)."""
        self.remaining_joules = self.capacity_joules
