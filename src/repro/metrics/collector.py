"""Run-level metric collection.

:class:`RunMetrics` gathers, from a finished simulation, the quantities the
paper's figures report: average per-node transmission (Fig. 4a), the storage
Gini coefficient (Fig. 4b), average data-delivery time (Fig. 4c/5a),
transmission overhead by category (Fig. 5b), mining statistics (block
intervals, per-miner counts), and recovery latencies (the recent-block
ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.metrics.gini import gini_coefficient
from repro.metrics.stats import Summary, mean_or_nan
from repro.simnet.trace import TransmissionTrace


@dataclass
class RunMetrics:
    """Aggregated outcomes of one simulation run."""

    #: The measured nodes' ids; every per-node list follows this order.
    node_ids: List[int]
    duration_seconds: float
    #: Per-node total (tx+rx) bytes.
    per_node_bytes: List[int]
    #: Bytes by traffic category.
    category_bytes: Dict[str, int]
    #: Per-node used storage slots at the end of the run.
    storage_used: List[int]
    #: All successful data-delivery times, seconds.
    delivery_times: List[float]
    #: Count of failed data requests.
    failed_requests: int
    #: Inter-block times of the final chain, seconds.
    block_intervals: List[float]
    #: Blocks mined per node id.
    blocks_mined: Dict[int, int]
    #: Completed missing-block recovery durations, seconds.
    recovery_durations: List[float] = field(default_factory=list)
    #: Total data items produced.
    data_items_produced: int = 0
    #: Tip height of the reference chain; ``None`` falls back to the interval
    #: count, which is only correct when every block body is still retained.
    tip_height: int | None = None

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    # -- the paper's headline quantities ------------------------------------------

    def average_node_megabytes(self) -> float:
        """Fig. 4(a): average transmission per node, in MB."""
        if not self.per_node_bytes:
            return 0.0
        return sum(self.per_node_bytes) / len(self.per_node_bytes) / 1e6

    def total_megabytes(self) -> float:
        return sum(self.category_bytes.values()) / 1e6

    def storage_gini(self) -> float:
        """Fig. 4(b): the Gini coefficient of per-node storage use."""
        return gini_coefficient(self.storage_used)

    def average_delivery_time(self) -> float:
        """Fig. 4(c) / Fig. 5(a): mean data-delivery time, seconds."""
        return mean_or_nan(self.delivery_times)

    def delivery_summary(self) -> Summary:
        return Summary.of(self.delivery_times)

    def mean_block_interval(self) -> float:
        return mean_or_nan(self.block_intervals)

    def mean_recovery_duration(self) -> float:
        return mean_or_nan(self.recovery_durations)

    def chain_height(self) -> int:
        if self.tip_height is not None:
            return self.tip_height
        return len(self.block_intervals)


def collect_run_metrics(
    node_count: int,
    duration_seconds: float,
    trace: TransmissionTrace,
    storage_used: Sequence[int],
    delivery_times: Sequence[float],
    failed_requests: int,
    block_timestamps: Sequence[float],
    blocks_mined: Dict[int, int],
    recovery_durations: Sequence[float] = (),
    data_items_produced: int = 0,
    tip_height: int | None = None,
    node_ids: Sequence[int] | None = None,
) -> RunMetrics:
    """Assemble a :class:`RunMetrics` from the raw run outputs of the
    nodes ``node_ids`` (default ``0..node_count-1``)."""
    ids = list(range(node_count) if node_ids is None else node_ids)
    timestamps = list(block_timestamps)
    intervals = [
        later - earlier for earlier, later in zip(timestamps, timestamps[1:])
    ]
    return RunMetrics(
        node_ids=ids,
        duration_seconds=duration_seconds,
        per_node_bytes=trace.per_node_bytes(ids),
        category_bytes=trace.categories(),
        storage_used=list(storage_used),
        delivery_times=list(delivery_times),
        failed_requests=failed_requests,
        block_intervals=intervals,
        blocks_mined=dict(blocks_mined),
        recovery_durations=list(recovery_durations),
        data_items_produced=data_items_produced,
        tip_height=tip_height,
    )
