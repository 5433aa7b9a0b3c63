"""Asyncio peer connection manager: dial, accept, handshake, keep alive.

One :class:`PeerManager` per node.  Responsibilities:

* **Listen** on a TCP port and accept inbound peers.
* **Dial** the peers this node is responsible for (the lower node id
  dials the higher — a deterministic rule that survives restarts on both
  sides without duplicate-connection races).
* **Handshake** before any protocol traffic: both sides exchange a
  ``hello`` frame carrying node id, genesis digest, and protocol
  version; any mismatch closes the socket.  The paper's testbed nodes
  shared a genesis by construction — here it is enforced.
* **Send queues**: every peer gets a bounded outbound queue drained by a
  writer task.  A full queue applies backpressure by dropping the newest
  frame (the protocol is loss-tolerant by design: lost announcements are
  repaired by gap recovery / chain sync).
* **Heartbeats**: periodic pings; a silent link is declared dead and
  closed, which triggers reconnection.
* **Reconnect** with jittered exponential backoff, forever — edge
  deployments churn, and the dial side must keep trying until the peer
  returns (:func:`reconnect_backoff` is the pure schedule, unit-tested
  separately).

Observability threads through the usual one-branch hooks:
``net.frames_sent`` / ``net.frames_received`` / ``net.reconnects`` (re-dials
of a peer that had completed a handshake) /
``net.sends_dropped`` counters and ``net.handshake_ms`` / ``net.rtt_ms``
histograms, all disabled by default.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

from repro.net.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    WireError,
    encode_frame,
    hello_frame,
    ping_frame,
    pong_frame,
)
from repro.obs import runtime as _obs

#: Chunk size for socket reads.
_READ_BYTES = 1 << 16


def reconnect_backoff(
    attempt: int,
    base: float = 0.05,
    cap: float = 2.0,
    jitter: float = 0.25,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay before reconnect ``attempt`` (0-based): capped exponential.

    ``delay = min(cap, base·2^attempt)`` stretched by up to ``+jitter``
    fraction so a rebooted hub is not stampeded by synchronised dialers.
    Deterministic when ``rng`` is seeded; jitter-free when ``rng`` is None.
    """
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    if base <= 0 or cap <= 0:
        raise ValueError("base and cap must be positive")
    if not (0.0 <= jitter <= 1.0):
        raise ValueError("jitter must be in [0, 1]")
    # 2^attempt overflows nothing but needn't be computed past the cap.
    delay = min(cap, base * (2.0 ** min(attempt, 32)))
    if rng is not None and jitter > 0.0:
        delay *= 1.0 + jitter * rng.random()
    return min(delay, cap * (1.0 + jitter))


@dataclass(frozen=True)
class PeerConfig:
    """Tunables for connection management (wall-clock seconds)."""

    handshake_timeout: float = 5.0
    heartbeat_interval: float = 1.0
    #: Heartbeat intervals of silence before the link is declared dead.
    heartbeat_misses: int = 3
    send_queue_frames: int = 256
    reconnect_base: float = 0.05
    reconnect_cap: float = 2.0
    reconnect_jitter: float = 0.25
    max_frame_bytes: int = MAX_FRAME_BYTES


@dataclass(frozen=True)
class HandshakeInfo:
    """What a completed handshake established about the remote side."""

    node_id: int
    genesis_digest: str
    listen_port: int


@dataclass
class PeerState:
    """One live (handshaken) connection."""

    info: HandshakeInfo
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    queue: "asyncio.Queue[Optional[bytes]]"
    tasks: list = field(default_factory=list)
    last_rx: float = 0.0

    def close(self) -> None:
        for task in self.tasks:
            task.cancel()
        self.tasks.clear()
        try:
            self.writer.close()
        except RuntimeError:  # the event loop is already closed
            pass


class PeerManager:
    """Connection fabric for one node: accept + dial + keep-alive."""

    def __init__(
        self,
        node_id: int,
        genesis_digest: str,
        on_message: Callable[[int, Dict[str, Any]], None],
        config: Optional[PeerConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        rng: Optional[random.Random] = None,
        on_peer_up: Optional[Callable[[int], None]] = None,
        on_peer_down: Optional[Callable[[int], None]] = None,
    ):
        self.node_id = node_id
        self.genesis_digest = genesis_digest
        self.config = config or PeerConfig()
        self.host = host
        self.port = port  # updated to the bound port once listening
        self._on_message = on_message
        self._on_peer_up = on_peer_up
        self._on_peer_down = on_peer_down
        self._rng = rng or random.Random(node_id)
        self._peers: Dict[int, PeerState] = {}
        self._dial_targets: Dict[int, tuple] = {}  # peer id -> (host, port)
        self._dial_tasks: Dict[int, asyncio.Task] = {}
        self._dial_attempts: Dict[int, int] = {}  # peer id -> failed attempts
        # Peers that completed a handshake at least once: a later dial to
        # one of them is a reconnect; a dial that only waited for a peer
        # to bind its port is not.
        self._handshaken: Set[int] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        # Inbound connections still in their handshake: not peers yet,
        # but the server's to close with the rest.
        self._handshaking: Set[asyncio.StreamWriter] = set()
        self._closed = False
        # Counters mirrored into obs when enabled.
        self.frames_sent = 0
        self.frames_received = 0
        self.reconnects = 0
        self.sends_dropped = 0

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> int:
        """Bind the listening socket; returns the actual port."""
        self._server = await asyncio.start_server(
            self._on_inbound, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        """Tear everything down: server, dial loops, live connections."""
        self._closed = True
        for task in self._dial_tasks.values():
            task.cancel()
        self._dial_tasks.clear()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for peer in list(self._peers.values()):
            peer.close()
        self._peers.clear()
        for writer in list(self._handshaking):
            writer.close()
        if server is not None:
            # A closed server raises nothing here: it returns at once
            # (Python 3.11) or, from 3.12, once every connection it
            # accepted is gone — so all of them, handshaken or not, are
            # closed first.
            await server.wait_closed()
        await asyncio.sleep(0)  # let cancelled tasks unwind

    # -- queries -------------------------------------------------------------------

    def is_connected(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def connected_peers(self) -> list:
        return sorted(self._peers)

    # -- dialing -------------------------------------------------------------------

    def dial(self, peer_id: int, host: str, port: int) -> None:
        """Maintain a connection to ``peer_id``, reconnecting forever."""
        self._dial_targets[peer_id] = (host, port)
        if peer_id not in self._dial_tasks and peer_id not in self._peers:
            self._dial_tasks[peer_id] = asyncio.ensure_future(
                self._dial_loop(peer_id)
            )

    async def wait_connected(self, peer_ids, timeout: float = 10.0) -> None:
        """Block until every peer in ``peer_ids`` has completed a handshake."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            missing = [p for p in peer_ids if p not in self._peers]
            if not missing:
                return
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(f"peers never connected: {missing}")
            await asyncio.sleep(0.01)

    def _next_dial_delay(self, peer_id: int) -> float:
        """Backoff delay before the next dial to ``peer_id``; advances the schedule.

        Failed attempts persist across dial loops and reset only on a
        successful handshake (:meth:`_adopt`), so a peer that accepts TCP
        connects but keeps failing the handshake continues backing off
        instead of restarting the schedule from the base delay.
        """
        cfg = self.config
        attempt = self._dial_attempts.get(peer_id, 0)
        self._dial_attempts[peer_id] = attempt + 1
        return reconnect_backoff(
            attempt,
            base=cfg.reconnect_base,
            cap=cfg.reconnect_cap,
            jitter=cfg.reconnect_jitter,
            rng=self._rng,
        )

    async def _dial_loop(self, peer_id: int) -> None:
        while not self._closed and peer_id not in self._peers:
            host, port = self._dial_targets[peer_id]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                started = asyncio.get_running_loop().time()
                info, decoder, preamble = await self._handshake(reader, writer)
                if info.node_id != peer_id:
                    raise WireError(
                        f"dialed node {peer_id} but peer claims id {info.node_id}"
                    )
                if peer_id in self._handshaken:
                    self.reconnects += 1
                    _obs.add("net.reconnects")
                _obs.observe(
                    "net.handshake_ms",
                    (asyncio.get_running_loop().time() - started) * 1000.0,
                )
                self._adopt(info, reader, writer, decoder, preamble)
                return
            except (OSError, WireError, asyncio.TimeoutError, TimeoutError):
                await asyncio.sleep(self._next_dial_delay(peer_id))
        self._dial_tasks.pop(peer_id, None)

    # -- handshake -----------------------------------------------------------------

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple:
        """Exchange ``hello`` frames; raises WireError on any mismatch.

        Returns ``(info, decoder, preamble)``: the established identity,
        the stream decoder (it may hold a partial frame), and any frames
        that rode in behind the hello.
        """
        loop = asyncio.get_running_loop()
        writer.write(
            encode_frame(
                hello_frame(self.node_id, self.genesis_digest, self.port, loop.time())
            )
        )
        await writer.drain()
        decoder = FrameDecoder(max_bytes=self.config.max_frame_bytes)
        frames: list = []
        while not frames:
            chunk = await asyncio.wait_for(
                reader.read(_READ_BYTES), timeout=self.config.handshake_timeout
            )
            if not chunk:
                raise WireError("connection closed during handshake")
            frames = decoder.feed(chunk)
        hello = frames.pop(0)
        if hello.get("kind") != "hello":
            raise WireError(f"expected hello frame, got {hello.get('kind')!r}")
        if hello.get("v") != PROTOCOL_VERSION:
            raise WireError(
                f"protocol version mismatch: ours {PROTOCOL_VERSION}, "
                f"theirs {hello.get('v')!r}"
            )
        if hello.get("genesis") != self.genesis_digest:
            raise WireError("genesis digest mismatch — peer is on a different chain")
        try:
            info = HandshakeInfo(
                node_id=int(hello["node"]),
                genesis_digest=str(hello["genesis"]),
                listen_port=int(hello["port"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise WireError(f"malformed hello frame: {error}") from error
        return info, decoder, frames

    async def _on_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._handshaking.add(writer)
        try:
            info, decoder, preamble = await self._handshake(reader, writer)
        except (WireError, asyncio.TimeoutError, TimeoutError, OSError):
            writer.close()
            return
        finally:
            self._handshaking.discard(writer)
        if self._closed:
            writer.close()
            return
        self._adopt(info, reader, writer, decoder, preamble)

    def _adopt(
        self,
        info: HandshakeInfo,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: FrameDecoder,
        preamble: list,
    ) -> None:
        """Install a handshaken connection and start its service tasks."""
        existing = self._peers.pop(info.node_id, None)
        if existing is not None:
            existing.close()
        peer = PeerState(
            info=info,
            reader=reader,
            writer=writer,
            queue=asyncio.Queue(maxsize=self.config.send_queue_frames),
            last_rx=asyncio.get_running_loop().time(),
        )
        self._peers[info.node_id] = peer
        self._handshaken.add(info.node_id)
        self._dial_tasks.pop(info.node_id, None)
        # Successful handshake: the backoff schedule starts over.
        self._dial_attempts.pop(info.node_id, None)
        peer.tasks = [
            asyncio.ensure_future(self._reader_loop(peer, decoder, preamble)),
            asyncio.ensure_future(self._writer_loop(peer)),
            asyncio.ensure_future(self._heartbeat_loop(peer)),
        ]
        if self._on_peer_up is not None:
            self._on_peer_up(info.node_id)

    # -- per-connection service tasks ----------------------------------------------

    def _lost(self, peer: PeerState) -> None:
        """Connection died: clean up and, if we are the dialer, re-dial."""
        current = self._peers.get(peer.info.node_id)
        if current is not peer:
            return  # already replaced by a fresh connection
        del self._peers[peer.info.node_id]
        peer.close()
        if self._on_peer_down is not None:
            self._on_peer_down(peer.info.node_id)
        if not self._closed and peer.info.node_id in self._dial_targets:
            self.dial(peer.info.node_id, *self._dial_targets[peer.info.node_id])

    async def _reader_loop(
        self, peer: PeerState, decoder: FrameDecoder, preamble: list
    ) -> None:
        try:
            frames = list(preamble)
            while True:
                for frame in frames:
                    self._dispatch(peer, frame)
                chunk = await peer.reader.read(_READ_BYTES)
                if not chunk:
                    break  # EOF
                peer.last_rx = asyncio.get_running_loop().time()
                frames = decoder.feed(chunk)
        except asyncio.CancelledError:
            return
        except (OSError, WireError):
            pass  # malformed stream or dead socket: drop the connection
        self._lost(peer)

    def _dispatch(self, peer: PeerState, frame: Dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "ping":
            self._enqueue(peer, encode_frame(pong_frame(frame.get("t", 0.0))))
            return
        if kind == "pong":
            sent = frame.get("t")
            if isinstance(sent, (int, float)):
                rtt = asyncio.get_running_loop().time() - float(sent)
                _obs.observe("net.rtt_ms", max(rtt, 0.0) * 1000.0)
            return
        self.frames_received += 1
        _obs.add("net.frames_received")
        self._on_message(peer.info.node_id, frame)

    async def _writer_loop(self, peer: PeerState) -> None:
        try:
            while True:
                data = await peer.queue.get()
                if data is None:
                    break
                peer.writer.write(data)
                await peer.writer.drain()
        except asyncio.CancelledError:
            return
        except (OSError, ConnectionError):
            self._lost(peer)

    async def _heartbeat_loop(self, peer: PeerState) -> None:
        cfg = self.config
        try:
            while True:
                await asyncio.sleep(cfg.heartbeat_interval)
                loop_now = asyncio.get_running_loop().time()
                silent = loop_now - peer.last_rx
                if silent > cfg.heartbeat_interval * cfg.heartbeat_misses:
                    self._lost(peer)
                    return
                self._enqueue(peer, encode_frame(ping_frame(loop_now)))
        except asyncio.CancelledError:
            return

    # -- sending -------------------------------------------------------------------

    def _enqueue(self, peer: PeerState, data: bytes) -> bool:
        try:
            peer.queue.put_nowait(data)
        except asyncio.QueueFull:
            # Backpressure: protocol traffic is repairable (gap recovery,
            # chain sync), so shedding beats unbounded buffering on a slow
            # or wedged link.
            self.sends_dropped += 1
            _obs.add("net.sends_dropped")
            return False
        return True

    def send_frame(self, peer_id: int, data: bytes) -> bool:
        """Queue raw frame bytes to a peer; False if down or queue full."""
        peer = self._peers.get(peer_id)
        if peer is None:
            return False
        if not self._enqueue(peer, data):
            return False
        self.frames_sent += 1
        _obs.add("net.frames_sent")
        return True
