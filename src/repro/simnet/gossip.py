"""Epidemic gossip with duplicate suppression.

The transport layer's ``broadcast`` models dissemination analytically (BFS
tree).  This module provides the *protocol-level* alternative: a real
store-and-forward gossip where each node, on first receipt of a message id,
re-forwards to its current neighbours.  Only tests use it: they check that
the analytic broadcast and the hop-by-hop protocol agree on coverage and
latency.  No run path gossips hop by hop, churn scenarios included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Topology
from repro.simnet.trace import TransmissionTrace

#: Callback fired on each node's first receipt: (node, source, payload).
GossipHandler = Callable[[int, int, Any], None]


@dataclass(frozen=True)
class _GossipMessage:
    message_id: int
    origin: int
    payload: Any
    size_bytes: int
    category: str


class GossipFabric:
    """Hop-by-hop flooding with per-node duplicate suppression."""

    def __init__(
        self,
        engine: EventEngine,
        topology: Topology,
        channel: Optional[ChannelModel] = None,
        trace: Optional[TransmissionTrace] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.channel = channel if channel is not None else ChannelModel()
        self.trace = trace if trace is not None else TransmissionTrace()
        self._seen: Dict[int, Set[int]] = {}
        self._handler: Optional[GossipHandler] = None
        self._next_id = 0
        self._offline: Set[int] = set()

    def on_receive(self, handler: GossipHandler) -> None:
        """Set the single delivery callback shared by all nodes."""
        self._handler = handler

    def set_online(self, node: int, online: bool) -> None:
        if online:
            self._offline.discard(node)
        else:
            self._offline.add(node)

    def is_online(self, node: int) -> bool:
        return node not in self._offline

    def originate(self, origin: int, payload: Any, size_bytes: int, category: str) -> int:
        """Start a gossip from ``origin``; returns the message id."""
        if not self.is_online(origin):
            raise ValueError(f"origin node {origin} is offline")
        message = _GossipMessage(
            message_id=self._next_id,
            origin=origin,
            payload=payload,
            size_bytes=size_bytes,
            category=category,
        )
        self._next_id += 1
        self._seen.setdefault(message.message_id, set()).add(origin)
        self._forward(origin, message)
        return message.message_id

    def nodes_reached(self, message_id: int) -> Set[int]:
        """Nodes that have received (or originated) the message so far."""
        return set(self._seen.get(message_id, set()))

    def _forward(self, node: int, message: _GossipMessage) -> None:
        """Re-broadcast from ``node`` to its *current* neighbours."""
        latency = self.channel.hop_latency(message.size_bytes)
        pending = []
        for neighbor in self.topology.neighbors(node):
            if not self.is_online(neighbor):
                continue
            if not self.channel.survives(1, self.engine.np_rng):
                self.trace.record_hop(node, neighbor, message.size_bytes, message.category)
                continue
            self.trace.record_hop(node, neighbor, message.size_bytes, message.category)
            pending.append((self._receive, (neighbor, node, message)))
        # One queue pop per fan-out: all of a hop's receptions share the
        # same latency, and loss was drawn per neighbour above.
        if pending:
            self.engine.call_at_batch(self.engine.now + latency, pending)

    def _receive(self, node: int, upstream: int, message: _GossipMessage) -> None:
        if not self.is_online(node):
            return
        seen = self._seen.setdefault(message.message_id, set())
        if node in seen:
            return  # duplicate suppressed
        seen.add(node)
        if self._handler is not None:
            self._handler(node, message.origin, message.payload)
        self._forward(node, message)
