"""Seeded chaos scenario specification.

A :class:`ChaosSpec` pins everything that defines one adversarial run —
node count, config, seed, the adversary mix and its activity window, and
an optional churn/partition overlay composed with the existing fault
injectors — so two runs of the same spec produce identical verdicts and
honest-chain digests on the simulator.

:func:`node_classes_for` turns the adversary mix into the ``node_classes``
mapping both fabrics accept: for each adversarial node it builds a
dynamic subclass of the behavior class with the scenario's window baked
in as class attributes (see :mod:`repro.chaos.adversaries`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.chaos.adversaries import ADVERSARY_TYPES
from repro.core.config import SystemConfig
from repro.sim.runner import ChurnSpec

if TYPE_CHECKING:
    from repro.net.harness import KillSpec


@dataclass(frozen=True)
class PartitionSpec:
    """One scheduled partition window (sim fabric only).

    Empty groups mean "split the node ids in half" — the common case for
    CLI-driven scenarios.
    """

    at_minutes: float
    heal_minutes: float
    group_a: Tuple[int, ...] = ()
    group_b: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.at_minutes < 0:
            raise ValueError("partition start must be non-negative")
        if self.heal_minutes <= self.at_minutes:
            raise ValueError("partition heal must come after the split")

    def groups(self, node_count: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if self.group_a and self.group_b:
            return self.group_a, self.group_b
        half = node_count // 2
        return tuple(range(half)), tuple(range(half, node_count))


@dataclass(frozen=True)
class ChaosSpec:
    """Everything that defines one chaos run."""

    node_count: int
    config: SystemConfig
    seed: int = 0
    duration_minutes: float = 10.0
    #: behavior name (see ADVERSARY_TYPES) → adversarial node ids.
    adversaries: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Minutes into the run the misbehavior switches on / off
    #: (None = active to the end of the run).
    start_minutes: float = 0.0
    stop_minutes: Optional[float] = None
    churn: Optional[ChurnSpec] = None
    partition: Optional[PartitionSpec] = None
    #: Kill + restart one node mid-run (live fabric only).
    kill: Optional["KillSpec"] = None
    #: "sim" or "live".
    fabric: str = "sim"
    #: Wall seconds per logical second for the live fabric.
    time_scale: float = 0.02

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("a blockchain network needs at least 2 nodes")
        if self.duration_minutes <= 0:
            raise ValueError("duration must be positive")
        if self.fabric not in ("sim", "live"):
            raise ValueError(f"unknown fabric {self.fabric!r}")
        if self.start_minutes < 0:
            raise ValueError("adversary start must be non-negative")
        if self.stop_minutes is not None and self.stop_minutes <= self.start_minutes:
            raise ValueError("adversary stop must come after start")
        seen: Dict[int, str] = {}
        for behavior, node_ids in self.adversaries.items():
            if behavior not in ADVERSARY_TYPES:
                raise ValueError(
                    f"unknown adversary {behavior!r} "
                    f"(known: {sorted(ADVERSARY_TYPES)})"
                )
            for node_id in node_ids:
                if not 0 <= node_id < self.node_count:
                    raise ValueError(f"adversarial node {node_id} out of range")
                if node_id in seen:
                    raise ValueError(
                        f"node {node_id} assigned to both "
                        f"{seen[node_id]!r} and {behavior!r}"
                    )
                seen[node_id] = behavior
        if self.fabric == "live" and (self.churn or self.partition):
            raise ValueError(
                "churn/partition overlays are sim-fabric only; "
                "use kill for live-fabric faults"
            )
        if self.kill is not None:
            if self.fabric != "live":
                raise ValueError("kill plans are live-fabric only")
            if not 0 <= self.kill.node_id < self.node_count:
                raise ValueError("kill target out of range")

    @property
    def duration_seconds(self) -> float:
        return self.duration_minutes * 60.0

    @property
    def adversary_ids(self) -> Tuple[int, ...]:
        return tuple(
            sorted(
                node_id
                for node_ids in self.adversaries.values()
                for node_id in node_ids
            )
        )

    @property
    def honest_ids(self) -> Tuple[int, ...]:
        bad = set(self.adversary_ids)
        return tuple(n for n in range(self.node_count) if n not in bad)


def node_classes_for(spec: ChaosSpec) -> Dict[int, type]:
    """Per-node adversary classes with the scenario window baked in."""
    start = spec.start_minutes * 60.0
    stop = (
        spec.stop_minutes * 60.0 if spec.stop_minutes is not None else math.inf
    )
    classes: Dict[int, type] = {}
    for behavior, node_ids in sorted(spec.adversaries.items()):
        base = ADVERSARY_TYPES[behavior]
        windowed = type(
            f"{base.__name__}Windowed",
            (base,),
            {"chaos_start": start, "chaos_stop": stop},
        )
        for node_id in node_ids:
            classes[node_id] = windowed
    return classes
