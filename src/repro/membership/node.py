"""The SWIM failure-detector / membership node.

Protocol per round (every ``protocol_period`` seconds):

1. Pick the next member from a randomised round-robin schedule; ``Ping`` it.
2. No ``Ack`` within ``ping_timeout``?  Ask ``indirect_probes`` other
   members to ``PingReq`` the target.
3. Still nothing by the end of the period?  Mark the target SUSPECT and
   gossip that.  Suspicion that survives ``suspicion_timeout`` becomes DEAD.

Every message piggybacks pending membership updates (bounded batch,
bounded retransmissions) — that is the entire dissemination mechanism; no
broadcasts, no per-follower heartbeats.  Per-node load is O(1) per period
regardless of cluster size, which is exactly the overhead argument against
Raft's heartbeats the comparison benchmark quantifies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.membership.messages import (
    SWIM_CATEGORY,
    Ack,
    MembershipUpdate,
    MemberStatus,
    Ping,
    PingReq,
)
from repro.membership.state import DisseminationBuffer, MembershipTable
from repro.simnet.engine import EventEngine, EventHandle
from repro.simnet.transport import Network

#: Default protocol timing (seconds) — tuned for the 10 ms/hop testbed.
DEFAULT_PROTOCOL_PERIOD = 1.0
DEFAULT_PING_TIMEOUT = 0.3
DEFAULT_SUSPICION_TIMEOUT = 5.0
DEFAULT_INDIRECT_PROBES = 3


class SwimNode:
    """One SWIM member."""

    def __init__(
        self,
        node_id: int,
        members: List[int],
        network: Network,
        engine: EventEngine,
        protocol_period: float = DEFAULT_PROTOCOL_PERIOD,
        ping_timeout: float = DEFAULT_PING_TIMEOUT,
        suspicion_timeout: float = DEFAULT_SUSPICION_TIMEOUT,
        indirect_probes: int = DEFAULT_INDIRECT_PROBES,
    ):
        self.node_id = node_id
        self.network = network
        self.engine = engine
        #: Source of all protocol randomness (round desync, probe-schedule
        #: and proxy shuffles): the engine's shared stream.
        self.rng = engine.rng
        self.protocol_period = protocol_period
        self.ping_timeout = ping_timeout
        self.suspicion_timeout = suspicion_timeout
        self.indirect_probes = indirect_probes

        self.table = MembershipTable(node_id, members, now=engine.now)
        self.buffer = DisseminationBuffer()
        self._sequence = 0
        #: sequence → target awaiting a direct/indirect ack.
        self._awaiting: Dict[int, int] = {}
        #: proxy sequence → (original requester, original sequence).
        self._proxy_requests: Dict[int, tuple] = {}
        self._probe_schedule: List[int] = []
        self._timer: Optional[EventHandle] = None
        self._stopped = False

        network.register(node_id, self._on_message)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        # Desynchronise rounds across nodes.
        offset = self.rng.uniform(0, self.protocol_period)
        self._timer = self.engine.schedule(offset, self._protocol_round)

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()

    # -- protocol round -------------------------------------------------------------

    def _next_probe_target(self) -> Optional[int]:
        """Randomised round-robin over currently-alive members (SWIM §4.3)."""
        candidates = self.table.alive_members()
        if not candidates:
            return None
        self._probe_schedule = [m for m in self._probe_schedule if m in candidates]
        if not self._probe_schedule:
            schedule = list(candidates)
            self.rng.shuffle(schedule)
            self._probe_schedule = schedule
        return self._probe_schedule.pop()

    def _protocol_round(self) -> None:
        if self._stopped:
            return
        now = self.engine.now
        for update in self.table.expire_suspects(now, self.suspicion_timeout):
            self.buffer.push(update)
        target = self._next_probe_target()
        if target is not None:
            self._sequence += 1
            sequence = self._sequence
            self._awaiting[sequence] = target
            self._send(target, Ping(self.node_id, sequence, self.buffer.take()))
            self.engine.schedule(self.ping_timeout, self._direct_timeout, sequence)
        self._timer = self.engine.schedule(self.protocol_period, self._protocol_round)

    def _direct_timeout(self, sequence: int) -> None:
        target = self._awaiting.get(sequence)
        if target is None or self._stopped:
            return  # acked in time
        proxies = [
            member
            for member in self.table.alive_members()
            if member != target
        ]
        self.rng.shuffle(proxies)
        for proxy in proxies[: self.indirect_probes]:
            self._send(
                proxy,
                PingReq(self.node_id, sequence, target, self.buffer.take()),
            )
        self.engine.schedule(
            self.protocol_period - self.ping_timeout, self._indirect_timeout, sequence
        )

    def _indirect_timeout(self, sequence: int) -> None:
        target = self._awaiting.pop(sequence, None)
        if target is None or self._stopped:
            return  # someone acked meanwhile
        record = self.table.record(target)
        if record.status is not MemberStatus.ALIVE:
            return
        suspicion = MembershipUpdate(
            member=target, status=MemberStatus.SUSPECT, incarnation=record.incarnation
        )
        applied = self.table.apply(suspicion, self.engine.now)
        if applied is not None:
            self.buffer.push(applied)

    # -- message handling -------------------------------------------------------------

    def _send(self, target: int, message: Any) -> None:
        self.network.send(
            self.node_id, target, message, message.wire_size(), SWIM_CATEGORY
        )

    def _absorb(self, updates) -> None:
        for update in updates:
            applied = self.table.apply(update, self.engine.now)
            if applied is not None:
                self.buffer.push(applied)

    def _on_message(self, source: int, message: Any, category: str) -> None:
        if self._stopped or category != SWIM_CATEGORY:
            return
        if isinstance(message, Ping):
            self._absorb(message.updates)
            self._send(
                message.sender,
                Ack(self.node_id, message.sequence, self.node_id, self.buffer.take()),
            )
        elif isinstance(message, PingReq):
            self._absorb(message.updates)
            # Probe the target on the requester's behalf; remember who asked.
            self._sequence += 1
            proxy_sequence = self._sequence
            self._proxy_requests[proxy_sequence] = (message.sender, message.sequence)
            self._send(
                message.target,
                Ping(self.node_id, proxy_sequence, self.buffer.take()),
            )
        elif isinstance(message, Ack):
            self._absorb(message.updates)
            if message.sequence in self._awaiting:
                # Direct (or relayed) ack for our probe: target is alive.
                target = self._awaiting.pop(message.sequence)
                alive = MembershipUpdate(
                    member=target,
                    status=MemberStatus.ALIVE,
                    incarnation=self.table.record(target).incarnation,
                )
                applied = self.table.apply(alive, self.engine.now)
                if applied is not None:
                    self.buffer.push(applied)
            elif message.sequence in self._proxy_requests:
                # We probed on someone else's behalf: relay the good news.
                requester, original_sequence = self._proxy_requests.pop(
                    message.sequence
                )
                self._send(
                    requester,
                    Ack(
                        self.node_id,
                        original_sequence,
                        message.subject,
                        self.buffer.take(),
                    ),
                )

