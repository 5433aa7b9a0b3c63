"""Transmission accounting.

Fig. 4(a) and Fig. 5(b) of the paper report *transmission overhead*: bytes
sent/received per node, broken down into data request/response traffic, data
dissemination (storing nodes proactively fetching from the producer), and
blockchain broadcast traffic.  :class:`TransmissionTrace` is the single sink
for all byte accounting in the simulator; every hop a message traverses adds
its size to the forwarding node's TX counter and the receiving node's RX
counter, exactly as a real radio would bill both ends of each link.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass
class NodeTraffic:
    """Per-node byte counters."""

    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_messages: int = 0
    rx_messages: int = 0

    @property
    def total_bytes(self) -> int:
        return self.tx_bytes + self.rx_bytes


class TransmissionTrace:
    """Accumulates per-node and per-category traffic for one simulation run."""

    def __init__(self) -> None:
        self._nodes: Dict[int, NodeTraffic] = defaultdict(NodeTraffic)
        self._categories: Dict[str, int] = defaultdict(int)
        self._category_messages: Dict[str, int] = defaultdict(int)
        self._hops_total = 0

    def record_hop(self, sender: int, receiver: int, size_bytes: int, category: str) -> None:
        """Bill one link-level transmission of ``size_bytes``.

        ``category`` labels the traffic class (e.g. ``"block_broadcast"``,
        ``"data_response"``) for the overhead breakdown.
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        tx = self._nodes[sender]
        rx = self._nodes[receiver]
        tx.tx_bytes += size_bytes
        tx.tx_messages += 1
        rx.rx_bytes += size_bytes
        rx.rx_messages += 1
        self._categories[category] += size_bytes
        self._category_messages[category] += 1
        self._hops_total += 1

    def record_tree(
        self,
        fanout: Iterable[Tuple[int, int]],
        receivers: Sequence[int],
        size_bytes: int,
        category: str,
    ) -> None:
        """Bill one transmission of ``size_bytes`` over every edge of a tree.

        ``fanout`` pairs each sending node with how many of the edges it
        sends on, and each of ``receivers`` hears one: the same totals as
        one :meth:`record_hop` per edge.
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if not receivers:
            return
        nodes = self._nodes
        for sender, edges in fanout:
            tx = nodes[sender]
            tx.tx_bytes += size_bytes * edges
            tx.tx_messages += edges
        for receiver in receivers:
            rx = nodes[receiver]
            rx.rx_bytes += size_bytes
            rx.rx_messages += 1
        count = len(receivers)
        self._categories[category] += size_bytes * count
        self._category_messages[category] += count
        self._hops_total += count

    # -- queries ---------------------------------------------------------------

    def node(self, node: int) -> NodeTraffic:
        return self._nodes[node]

    def total_bytes(self) -> int:
        """Total link-level bytes (each hop counted once)."""
        return sum(self._categories.values())

    def total_messages(self) -> int:
        return self._hops_total

    def category_bytes(self, category: str) -> int:
        return self._categories[category]

    def categories(self) -> Dict[str, int]:
        return dict(self._categories)

    def category_messages(self) -> Dict[str, int]:
        return dict(self._category_messages)

    def per_node_bytes(self, node_ids: Iterable[int]) -> List[int]:
        """Total (tx+rx) bytes for each node id, in the given order."""
        return [self._nodes[n].total_bytes for n in node_ids]

    def average_node_bytes(self, node_count: int) -> float:
        """Average per-node traffic over the first ``node_count`` node ids.

        This is the paper's Fig. 4(a) metric ("the average transmission of
        each node").  Nodes that never transmitted still count in the mean.
        """
        if node_count <= 0:
            raise ValueError("node count must be positive")
        return sum(self._nodes[n].total_bytes for n in range(node_count)) / node_count

    def snapshot(self) -> Dict[str, object]:
        """A serialisable summary for experiment reports."""
        return {
            "total_bytes": self.total_bytes(),
            "total_messages": self.total_messages(),
            "categories": self.categories(),
        }

    def reset(self) -> None:
        self._nodes.clear()
        self._categories.clear()
        self._category_messages.clear()
        self._hops_total = 0
