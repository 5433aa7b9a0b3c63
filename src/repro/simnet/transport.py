"""Message transport over the simulated multi-hop network.

Bridges the pieces: the :class:`~repro.simnet.engine.EventEngine` provides
time, the :class:`~repro.simnet.topology.Topology` provides hop paths, the
:class:`~repro.simnet.channel.ChannelModel` provides latency/loss, and the
:class:`~repro.simnet.trace.TransmissionTrace` bills every link crossing.

Protocol nodes register a handler and exchange opaque payloads:

* :meth:`Network.send` — unicast along the shortest hop path.
* :meth:`Network.broadcast` — network-wide dissemination, either over a BFS
  spanning tree (the efficient model used for blocks/metadata) or by
  controlled flooding (each node forwards once — the naive model, used to
  quantify flooding overhead).  The tree, its depth levels and each
  node's fan-out are the topology's per-epoch
  :class:`~repro.simnet.topology.BroadcastPlan`, so a broadcast bills the
  tree in bulk and schedules one delivery batch per depth.

Messages to/from offline nodes are dropped, as are messages whose path no
longer exists (mobility or churn can disconnect the graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.obs import runtime as _obs
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.topology import Topology
from repro.simnet.trace import TransmissionTrace

#: Handler invoked on delivery: (source_node, payload, category).
MessageHandler = Callable[[int, Any, str], None]


@dataclass
class SendReceipt:
    """Outcome of a unicast: whether it was dispatched, and its ETA."""

    delivered: bool
    hops: int
    latency: float


class Network:
    """Unicast + broadcast message fabric over a unit-disk topology."""

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
        self._handlers: Dict[int, MessageHandler] = {}
        self._offline: Set[int] = set()
        #: Monotone counter of dispatched messages (unicast + broadcast).
        self.messages_sent = 0
        #: Messages that never reached delivery: offline endpoint, no
        #: path, channel loss, or a broadcast from an offline source.
        #: Mirrored by the live transport so sim and live loss accounting
        #: compare field for field.
        self.messages_dropped = 0

    # -- membership -------------------------------------------------------------

    def register(self, node: int, handler: MessageHandler) -> None:
        """Attach the protocol handler for ``node``."""
        self._handlers[node] = handler

    def is_online(self, node: int) -> bool:
        return node not in self._offline

    def set_online(self, node: int, online: bool) -> None:
        """Toggle a node's radio; offline nodes lose all topology edges."""
        if online and node in self._offline:
            self._offline.discard(node)
            self.topology.restore_node(node)
        elif not online and node not in self._offline:
            self._offline.add(node)
            self.topology.remove_node(node)

    def online_nodes(self) -> List[int]:
        return [n for n in range(self.topology.node_count) if n not in self._offline]

    # -- unicast ------------------------------------------------------------------

    def send(
        self,
        source: int,
        target: int,
        payload: Any,
        size_bytes: int,
        category: str,
    ) -> SendReceipt:
        """Route ``payload`` from ``source`` to ``target`` over the shortest path.

        Returns a receipt; ``delivered=False`` means the message was dropped
        (offline endpoint, no path, or channel loss) and no handler will fire.
        Billing covers exactly the hops the message actually traversed.
        """
        if source == target:
            raise ValueError("loopback sends are not routed")
        if not self.is_online(source) or not self.is_online(target):
            self.messages_dropped += 1
            _obs.add("net.messages_dropped")
            return SendReceipt(delivered=False, hops=0, latency=0.0)
        path = self.topology.shortest_path(source, target)
        if path is None:
            self.messages_dropped += 1
            _obs.add("net.messages_dropped")
            return SendReceipt(delivered=False, hops=0, latency=0.0)
        hops = len(path) - 1
        traversed = 0
        for upstream, downstream in zip(path, path[1:]):
            if not self.channel.survives(1, self.engine.np_rng):
                # Lost on this hop: bill what was actually sent, then drop.
                self.trace.record_hop(upstream, downstream, size_bytes, category)
                self.messages_dropped += 1
                _obs.add("net.messages_dropped")
                return SendReceipt(delivered=False, hops=traversed + 1, latency=0.0)
            self.trace.record_hop(upstream, downstream, size_bytes, category)
            traversed += 1
        latency = self.channel.path_latency(size_bytes, hops)
        self.messages_sent += 1
        _obs.add("net.messages_sent")
        self.engine.schedule(latency, self._deliver, target, source, payload, category)
        return SendReceipt(delivered=True, hops=hops, latency=latency)

    # -- broadcast ---------------------------------------------------------------

    def broadcast(
        self,
        source: int,
        payload: Any,
        size_bytes: int,
        category: str,
        mode: str = "tree",
    ) -> int:
        """Disseminate ``payload`` from ``source`` to every reachable node.

        ``mode="tree"`` bills one transmission per BFS-tree edge (each node
        receives the message exactly once — an idealised gossip with
        duplicate suppression).  ``mode="flood"`` bills the naive protocol
        where every node forwards to all neighbours except the link it heard
        the message on.  Both deliver at BFS-depth latency.

        Returns the number of nodes the broadcast reached (excluding source).
        """
        if not self.is_online(source):
            self.messages_dropped += 1
            _obs.add("net.messages_dropped")
            return 0
        if mode not in ("tree", "flood"):
            raise ValueError(f"unknown broadcast mode: {mode}")
        plan = self.topology.broadcast_plan(source)
        self.trace.record_tree(
            zip(plan.senders, plan.edges), plan.reached, size_bytes, category
        )
        # Deliveries arrive in BFS order, a level at a time; latencies are
        # non-decreasing in depth, so nodes sharing an arrival instant
        # form contiguous runs.  Each run is one queue pop, which reorders
        # nothing (see ``EventEngine.call_at_batch``).
        deliver = self._deliver
        pending: List[tuple] = []
        pending_latency = 0.0
        for depth, level in enumerate(plan.levels, start=1):
            latency = self.channel.path_latency(size_bytes, depth)
            if pending and latency != pending_latency:
                self.engine.call_at_batch(self.engine.now + pending_latency, pending)
                pending = []
            pending.extend([(deliver, (node, source, payload, category)) for node in level])
            pending_latency = latency
        if pending:
            self.engine.call_at_batch(self.engine.now + pending_latency, pending)
        if mode == "flood":
            # Extra redundant transmissions: every node that received the
            # message re-broadcasts once to each neighbour other than its
            # tree parent; those copies are suppressed on arrival but still
            # billed on the air.
            parent = plan.parent
            for node in (source, *plan.reached):
                for neighbor in self.topology.neighbors(node):
                    if node == source or neighbor != parent[node]:
                        if parent[neighbor] < 0:
                            continue  # not reached
                        if parent[neighbor] == node:
                            continue  # already billed as the tree edge
                        self.trace.record_hop(node, neighbor, size_bytes, category)
        self.messages_sent += 1
        _obs.add("net.messages_sent")
        return len(plan.reached)

    # -- accounting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Traffic summary: trace totals plus sent/dropped counters.

        Same shape as :meth:`repro.net.router.SocketNetwork.snapshot`, so
        a simulated and a live run of the same workload diff directly.
        """
        return {
            **self.trace.snapshot(),
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
        }

    # -- delivery ----------------------------------------------------------------

    def _deliver(self, target: int, source: int, payload: Any, category: str) -> None:
        if not self.is_online(target):
            return  # went offline while the message was in flight
        handler = self._handlers.get(target)
        if handler is not None:
            handler(source, payload, category)
