"""Socket-backed message router, drop-in for the simulated transport.

:class:`SocketNetwork` exposes the exact surface protocol code consumes
from :class:`repro.simnet.transport.Network` — ``register`` /
``is_online`` / ``send`` / ``broadcast`` returning the same
:class:`~repro.simnet.transport.SendReceipt` — so the PoS miner, the
recent-block allocation path and gap/chain sync run **unmodified** over
real sockets.

Semantics mapping:

* unicast ``send`` → one framed message on the peer's TCP connection
  (the kernel routes; multi-hop costs are *modelled*, see below);
* ``broadcast`` → direct fan-out to every connected peer, delivering to
  each node exactly once — the same delivered-set the simulator's BFS
  spanning tree produces on a connected topology (the broadcast-parity
  test pins this equivalence);
* byte accounting still flows into a :class:`~repro.simnet.trace.
  TransmissionTrace` (one "hop" per socket send of the *serialised*
  frame size), and drops into ``messages_dropped``, mirroring the
  simulator's loss accounting so sim and live traffic summaries compare
  field for field.

Latency shaping — the parity-critical piece
-------------------------------------------

The simulator delivers a message at ``sent_at + path_latency(size,
hops)`` on the shared logical clock; a raw socket delivers at "whenever
the kernel got around to it", with the receiver's clock parked at its
last local timer.  To keep live runs digest-identical to simnet, the
receiver re-derives the *modelled* delivery instant — the envelope
carries the sender's logical send time and model size, the hop count
comes from the shared deterministic :class:`~repro.simnet.topology.
Topology`, and the handler is scheduled on the receiver's
:class:`~repro.net.clock.AsyncEngine` at exactly that logical time.
Handlers therefore observe the same ``engine.now`` as their simulated
counterparts, and everything they derive from it (mining schedules,
block timestamps, retry timers) matches bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.errors import ValidationError
from repro.net.peer import PeerManager
from repro.net.wire import decode_message, encode_message
from repro.obs import runtime as _obs
from repro.obs.tracer import TraceContext
from repro.simnet.channel import ChannelModel
from repro.simnet.topology import UNREACHABLE, Topology
from repro.simnet.trace import TransmissionTrace
from repro.simnet.transport import MessageHandler, SendReceipt


class SocketNetwork:
    """Unicast + broadcast over a :class:`PeerManager`'s live connections."""

    def __init__(
        self,
        node_id: int,
        node_count: int,
        peers: PeerManager,
        engine: Any = None,
        topology: Optional[Topology] = None,
        channel: Optional[ChannelModel] = None,
        trace: Optional[TransmissionTrace] = None,
    ):
        self.node_id = node_id
        self.node_count = node_count
        self.peers = peers
        #: AsyncEngine + topology + channel enable latency shaping; when
        #: any is absent, delivery degrades to immediate dispatch.
        self.engine = engine
        self.topology = topology
        self.channel = channel
        self.trace = trace if trace is not None else TransmissionTrace()
        self._handlers: Dict[int, MessageHandler] = {}
        #: Counters matching :class:`repro.simnet.transport.Network`.
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Frames that arrived but failed to decode (malformed/tampered).
        self.frames_rejected = 0

    # -- membership (Network-compatible surface) -----------------------------------

    def register(self, node: int, handler: MessageHandler) -> None:
        """Attach the local protocol handler (the one node this router hosts)."""
        self._handlers[node] = handler

    def is_online(self, node: int) -> bool:
        """Local node: always online.  Remote: online iff a link is up."""
        if node == self.node_id:
            return True
        return self.peers.is_connected(node)

    def online_nodes(self) -> List[int]:
        return sorted(set(self.peers.connected_peers()) | {self.node_id})

    # -- unicast ------------------------------------------------------------------

    def send(
        self,
        source: int,
        target: int,
        payload: Any,
        size_bytes: int,
        category: str,
    ) -> SendReceipt:
        """Frame ``payload`` and queue it on the link to ``target``.

        ``size_bytes`` is the protocol-model size; billing uses the real
        serialised frame size so live overhead reflects actual bytes.
        ``delivered=False`` means the peer is down or its queue is full —
        the same contract the simulator's receipt carries.
        """
        if source == target:
            raise ValueError("loopback sends are not routed")
        frame = encode_message(
            source,
            payload,
            category,
            size_bytes=size_bytes,
            sent_at=self._now(),
            trace_ctx=self._trace_ctx(),
        )
        if not self.peers.send_frame(target, frame):
            self.messages_dropped += 1
            _obs.add("net.messages_dropped")
            return SendReceipt(delivered=False, hops=0, latency=0.0)
        self.trace.record_hop(source, target, len(frame), category)
        self.messages_sent += 1
        _obs.add("net.messages_sent")
        hops, latency = self._model(target, size_bytes)
        return SendReceipt(delivered=True, hops=hops, latency=latency)

    # -- broadcast ----------------------------------------------------------------

    def broadcast(
        self,
        source: int,
        payload: Any,
        size_bytes: int,
        category: str,
        mode: str = "tree",
    ) -> int:
        """Fan ``payload`` out to every connected peer; returns the count.

        ``mode`` is accepted for signature compatibility; a socket mesh
        has no redundant flooding copies to model — every node receives
        the message exactly once, like the simulator's ``tree`` mode.
        """
        if mode not in ("tree", "flood"):
            raise ValueError(f"unknown broadcast mode: {mode}")
        frame = encode_message(
            source,
            payload,
            category,
            size_bytes=size_bytes,
            sent_at=self._now(),
            trace_ctx=self._trace_ctx(),
        )
        reached = 0
        for peer_id in self.peers.connected_peers():
            if self.peers.send_frame(peer_id, frame):
                self.trace.record_hop(source, peer_id, len(frame), category)
                reached += 1
        self.messages_sent += 1
        _obs.add("net.messages_sent")
        if reached == 0:
            self.messages_dropped += 1
            _obs.add("net.messages_dropped")
        return reached

    # -- delivery -----------------------------------------------------------------

    def deliver_frame(self, peer_id: int, frame: Dict[str, Any]) -> None:
        """Decode an inbound ``msg`` frame and invoke the local handler.

        Wired as the :class:`PeerManager`'s ``on_message`` callback.
        Malformed or tampered frames (bad JSON shape, failed block-hash
        re-verification) are counted and dropped — a hostile peer cannot
        crash the node's reader.

        Delivery is shaped onto the logical clock: the handler runs as an
        engine timer at ``sent_at + modelled path latency``, matching the
        instant the simulator would deliver the same message.
        """
        try:
            source, payload, category, size_bytes, sent_at = decode_message(frame)
        except ValidationError:
            self.frames_rejected += 1
            _obs.add("net.frames_rejected")
            return
        handler = self._handlers.get(self.node_id)
        if handler is None:
            return
        tc = frame.get("tc")
        if self.engine is None:
            self._dispatch(handler, source, payload, category, tc)
            return
        _, latency = self._model(source, size_bytes)
        self.engine.call_at(
            sent_at + latency, self._dispatch, handler, source, payload, category, tc
        )

    def _dispatch(
        self,
        handler: MessageHandler,
        source: int,
        payload: Any,
        category: str,
        tc: Any = None,
    ) -> None:
        # Continue the sender's trace when the envelope carried a context:
        # the delivery span re-parents onto the remote span id, so a merged
        # multi-process trace stitches the send and the receive together.
        ctx = TraceContext.from_wire(tc) if tc is not None else None
        with _obs.remote_span("net.deliver", "net", ctx, msg=category):
            handler(source, payload, category)

    # -- modelling helpers --------------------------------------------------------

    def _trace_ctx(self) -> Optional[List[Any]]:
        """Wire form of the current trace context (None when obs is off)."""
        ctx = _obs.current_trace_context()
        return ctx.to_wire() if ctx is not None else None

    def _now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    def _model(self, remote: int, size_bytes: int) -> tuple:
        """Modelled ``(hops, latency)`` between this node and ``remote``.

        Falls back to a single hop when no topology/channel is attached
        or the model graph says unreachable (the socket clearly works).
        """
        hops = 1
        if self.topology is not None:
            counted = self.topology.hop_count(remote, self.node_id)
            if counted != UNREACHABLE and counted > 0:
                hops = counted
        if self.channel is None:
            return hops, 0.0
        return hops, self.channel.path_latency(size_bytes, hops)

    # -- accounting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Traffic summary with the same keys as the simulator transport's."""
        return {
            **self.trace.snapshot(),
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
        }
