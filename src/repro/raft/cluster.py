"""Raft cluster harness.

Convenience wrapper that wires a set of :class:`~repro.raft.node.RaftNode`
instances onto a shared simulated network, with helpers used by ablation
A5, the membership example and the Raft test-suite:
waiting for a leader, submitting commands through whoever leads, and
inspecting committed state across the cluster.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.raft.node import RaftNode
from repro.simnet.engine import EventEngine
from repro.simnet.transport import Network


class RaftCluster:
    """A set of Raft nodes sharing one network and event engine."""

    def __init__(
        self,
        node_ids: List[int],
        network: Network,
        engine: EventEngine,
        on_apply: Optional[Callable[[int, int, Any], None]] = None,
        **node_kwargs,
    ):
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node ids must be unique")
        self.engine = engine
        self.network = network
        self._applied: Dict[int, List[Tuple[int, Any]]] = {n: [] for n in node_ids}
        self._external_apply = on_apply
        self.nodes: Dict[int, RaftNode] = {}
        for node_id in node_ids:
            peers = [other for other in node_ids if other != node_id]
            self.nodes[node_id] = RaftNode(
                node_id=node_id,
                peers=peers,
                network=network,
                engine=engine,
                apply_callback=self._record_apply,
                **node_kwargs,
            )

    def _record_apply(self, node_id: int, index: int, command: Any) -> None:
        self._applied[node_id].append((index, command))
        if self._external_apply is not None:
            self._external_apply(node_id, index, command)

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()

    # -- helpers -------------------------------------------------------------------

    def leader(self) -> Optional[RaftNode]:
        """The current leader with the highest term, if any."""
        leaders = [
            n
            for n in self.nodes.values()
            if n.is_leader and self.network.is_online(n.node_id)
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term)

    def wait_for_leader(self, timeout: float = 10.0) -> RaftNode:
        """Advance simulation until exactly one live leader exists."""
        deadline = self.engine.now + timeout
        step = 0.05
        while self.engine.now < deadline:
            self.engine.run_until(min(self.engine.now + step, deadline))
            node = self.leader()
            if node is not None:
                return node
        raise TimeoutError("no Raft leader elected within the timeout")

    def submit_via_leader(self, command: Any, timeout: float = 10.0) -> int:
        """Submit a command through the current leader (electing one first)."""
        leader = self.wait_for_leader(timeout)
        index = leader.submit(command)
        if index is None:  # leadership changed under us; retry once
            leader = self.wait_for_leader(timeout)
            index = leader.submit(command)
        if index is None:
            raise RuntimeError("could not submit command: no stable leader")
        return index

    def wait_for_commit(self, index: int, timeout: float = 10.0) -> None:
        """Advance simulation until a majority has committed ``index``."""
        deadline = self.engine.now + timeout
        step = 0.05
        majority = len(self.nodes) // 2 + 1
        while self.engine.now < deadline:
            self.engine.run_until(min(self.engine.now + step, deadline))
            committed = sum(
                1 for n in self.nodes.values() if n.commit_index >= index
            )
            if committed >= majority:
                return
        raise TimeoutError(f"log index {index} not committed within the timeout")

    def applied_commands(self, node_id: int) -> List[Any]:
        """Commands applied by ``node_id``'s state machine, in order."""
        return [command for _, command in self._applied[node_id]]

    def crash(self, node_id: int) -> None:
        """Stop a node and take it off the network."""
        self.nodes[node_id].stop()
        self.network.set_online(node_id, False)

    def logs_consistent(self) -> bool:
        """Check the Log Matching property over all committed prefixes."""
        reference: Optional[List[Any]] = None
        for node in self.nodes.values():
            commands = node.committed_commands()
            if reference is None or len(commands) > len(reference):
                if reference is not None and commands[: len(reference)] != reference:
                    return False
                reference = commands
            elif commands != reference[: len(commands)]:
                return False
        return True
