"""Fault injection: churn, disconnection windows, and partitions.

Mobility-induced disconnection is the motivating failure mode for the
paper's recent-block allocation (Section IV-C): nodes drop off, miss blocks,
and must recover them quickly on reconnect.  :class:`ChurnInjector`
schedules those disconnection windows on the event engine, and
:class:`PartitionInjector` splits the topology for network-partition tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.simnet.engine import EventEngine
from repro.simnet.transport import Network


@dataclass(frozen=True)
class ChurnEvent:
    """One planned disconnection window for a node."""

    node: int
    down_at: float
    up_at: float

    def __post_init__(self) -> None:
        if self.up_at <= self.down_at:
            raise ValueError("reconnect must come after disconnect")


class ChurnInjector:
    """Schedules node down/up windows and notifies the protocol layer.

    ``on_down`` / ``on_up`` callbacks let protocol nodes react (e.g. a node
    that comes back up starts the missing-block recovery protocol).
    """

    def __init__(
        self,
        engine: EventEngine,
        network: Network,
        on_down: Optional[Callable[[int], None]] = None,
        on_up: Optional[Callable[[int], None]] = None,
    ):
        self._engine = engine
        self._network = network
        self._on_down = on_down
        self._on_up = on_up
        self._events: List[ChurnEvent] = []

    @property
    def planned_events(self) -> List[ChurnEvent]:
        return list(self._events)

    def plan(self, event: ChurnEvent) -> None:
        """Schedule one disconnection window.

        Rejects windows starting in the past and windows overlapping an
        already-planned window for the same node — either would corrupt
        the up/down state machine (a node brought "up" inside another
        window's downtime, or a transition the engine refuses to fire).
        """
        if event.down_at < self._engine.now:
            raise ValueError(
                f"churn window for node {event.node} starts at {event.down_at:.3f}, "
                f"before the current time {self._engine.now:.3f}"
            )
        for planned in self._events:
            if planned.node != event.node:
                continue
            if event.down_at < planned.up_at and planned.down_at < event.up_at:
                raise ValueError(
                    f"churn window [{event.down_at:.3f}, {event.up_at:.3f}] for "
                    f"node {event.node} overlaps planned window "
                    f"[{planned.down_at:.3f}, {planned.up_at:.3f}]"
                )
        self._events.append(event)
        self._engine.call_at(event.down_at, self._take_down, event.node)
        self._engine.call_at(event.up_at, self._bring_up, event.node)

    def plan_random(
        self,
        node_ids: List[int],
        horizon: float,
        mean_downtime: float,
        events_per_node: float,
    ) -> List[ChurnEvent]:
        """Sample disconnection windows uniformly over ``[0, horizon]``.

        Each listed node suffers a Poisson-ish number of windows (rounded
        expectation) with exponential downtime of the given mean.  Windows
        for one node never overlap: they are sorted and clipped.
        """
        rng = self._engine.np_rng
        planned: List[ChurnEvent] = []
        for node in node_ids:
            count = max(0, int(round(events_per_node)))
            starts = sorted(float(rng.uniform(0, horizon)) for _ in range(count))
            last_up = 0.0
            for start in starts:
                down_at = max(start, last_up + 1e-6, self._engine.now)
                if down_at > horizon:
                    break  # the non-overlap shift pushed past the horizon
                duration = float(rng.exponential(mean_downtime))
                up_at = min(down_at + max(duration, 1e-3), horizon + mean_downtime)
                if up_at <= down_at:
                    continue
                event = ChurnEvent(node=node, down_at=down_at, up_at=up_at)
                self.plan(event)
                planned.append(event)
                last_up = up_at
        return planned

    def _take_down(self, node: int) -> None:
        self._network.set_online(node, False)
        if self._on_down is not None:
            self._on_down(node)

    def _bring_up(self, node: int) -> None:
        self._network.set_online(node, True)
        if self._on_up is not None:
            self._on_up(node)


class PartitionInjector:
    """Splits the network into groups by disabling cross-group delivery.

    Implemented by taking the smaller side's nodes offline is too blunt (it
    also stops intra-group traffic), so instead we interpose on the
    topology: edges crossing the partition are removed and restored on heal.
    """

    def __init__(self, network: Network, engine: Optional[EventEngine] = None):
        self._network = network
        self._engine = engine
        self._removed: List[Tuple[int, int]] = []
        self._active = False
        self._windows: List[Tuple[float, float]] = []

    @property
    def active(self) -> bool:
        return self._active

    def schedule(
        self,
        group_a: List[int],
        group_b: List[int],
        at: float,
        heal_at: float,
    ) -> None:
        """Plan a partition window ``[at, heal_at)`` on the event engine.

        Windows in the past, inverted windows, and windows overlapping an
        already-scheduled one are rejected up front — only one partition
        can be active at a time, and a mid-run :exc:`RuntimeError` from
        :meth:`partition` would be far harder to diagnose.
        """
        if self._engine is None:
            raise ValueError("scheduling requires an engine")
        if at < self._engine.now:
            raise ValueError(
                f"partition window starts at {at:.3f}, before the current "
                f"time {self._engine.now:.3f}"
            )
        if heal_at <= at:
            raise ValueError("partition heal must come after the split")
        for start, stop in self._windows:
            if at < stop and start < heal_at:
                raise ValueError(
                    f"partition window [{at:.3f}, {heal_at:.3f}] overlaps "
                    f"scheduled window [{start:.3f}, {stop:.3f}]"
                )
        self._windows.append((at, heal_at))
        self._engine.call_at(at, self.partition, list(group_a), list(group_b))
        self._engine.call_at(heal_at, self.heal)

    def partition(self, group_a: List[int], group_b: List[int]) -> int:
        """Cut all edges between the two groups; returns edges removed."""
        if self._active:
            raise RuntimeError("a partition is already active")
        set_a, set_b = set(group_a), set(group_b)
        if set_a & set_b:
            raise ValueError("partition groups must be disjoint")
        topology = self._network.topology
        crossing = [
            (u, v)
            for u, v in topology.edges()
            if (u in set_a and v in set_b) or (u in set_b and v in set_a)
        ]
        topology.remove_edges(crossing)
        self._removed = crossing
        self._active = True
        return len(crossing)

    def heal(self) -> None:
        """Restore every edge removed by :meth:`partition`."""
        if not self._active:
            return
        self._network.topology.add_edges(self._removed)
        self._removed = []
        self._active = False
