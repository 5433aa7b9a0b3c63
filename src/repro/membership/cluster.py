"""SWIM cluster harness (mirror of :class:`repro.raft.cluster.RaftCluster`)."""

from __future__ import annotations

from typing import Dict, List

from repro.membership.messages import MemberStatus
from repro.membership.node import SwimNode
from repro.simnet.engine import EventEngine
from repro.simnet.transport import Network


class SwimCluster:
    """A set of SWIM members sharing one network and event engine."""

    def __init__(
        self,
        node_ids: List[int],
        network: Network,
        engine: EventEngine,
        **node_kwargs,
    ):
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node ids must be unique")
        self.engine = engine
        self.network = network
        self.nodes: Dict[int, SwimNode] = {
            node_id: SwimNode(
                node_id, list(node_ids), network, engine, **node_kwargs
            )
            for node_id in node_ids
        }

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def crash(self, node_id: int) -> None:
        """Silently kill a member (stops responding, stays registered)."""
        self.nodes[node_id].stop()
        self.network.set_online(node_id, False)

    def view_of(self, observer: int) -> Dict[int, MemberStatus]:
        """The observer's current status for every member."""
        table = self.nodes[observer].table
        return {member: table.status(member) for member in table.members()}

    def converged_on_dead(self, dead: int, observers: List[int]) -> bool:
        """True when every live observer has declared ``dead`` DEAD."""
        return all(
            self.nodes[obs].table.status(dead) is MemberStatus.DEAD
            for obs in observers
        )

    def wait_for_detection(
        self, dead: int, timeout: float = 60.0, step: float = 1.0
    ) -> float:
        """Run until all live members detect ``dead``; returns elapsed time."""
        start = self.engine.now
        observers = [
            node_id
            for node_id, node in self.nodes.items()
            if node_id != dead and not node._stopped
        ]
        deadline = start + timeout
        while self.engine.now < deadline:
            self.engine.run_until(min(self.engine.now + step, deadline))
            if self.converged_on_dead(dead, observers):
                return self.engine.now - start
        raise TimeoutError(f"member {dead} not detected dead within {timeout}s")
