"""Result export: run records and their CSV writer.

Turns :class:`~repro.metrics.collector.RunMetrics` into plain
serialisable records so sweeps can be archived, diffed across runs, and
plotted by external tools.  :func:`store_chain_record` derives the
chain-level share of those quantities straight from a durable
:class:`~repro.persist.chainstore.ChainStore`, so finished (or crashed)
runs can be summarised without re-simulating anything.  JSON files are
written by :func:`repro.obs.export.write_json`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

from repro.metrics.collector import RunMetrics

PathLike = Union[str, Path]


def metrics_to_record(metrics: RunMetrics, **labels) -> Dict[str, object]:
    """Flatten one run's metrics into a serialisable record.

    ``labels`` (e.g. ``node_count=30, rate=2.0, solver="greedy"``) are
    prepended so sweep records are self-describing.
    """
    record: Dict[str, object] = dict(labels)
    record.update(
        {
            "node_count": metrics.node_count,
            "duration_seconds": metrics.duration_seconds,
            "chain_height": metrics.chain_height(),
            "mean_block_interval_s": metrics.mean_block_interval(),
            "avg_node_megabytes": metrics.average_node_megabytes(),
            "total_megabytes": metrics.total_megabytes(),
            "storage_gini": metrics.storage_gini(),
            "avg_delivery_s": metrics.average_delivery_time(),
            "deliveries": len(metrics.delivery_times),
            "failed_requests": metrics.failed_requests,
            "data_items_produced": metrics.data_items_produced,
            "recoveries": len(metrics.recovery_durations),
            "mean_recovery_s": metrics.mean_recovery_duration(),
            "category_bytes": dict(metrics.category_bytes),
        }
    )
    return record


def store_chain_record(store) -> Dict[str, object]:
    """Chain-level metrics straight from a durable chain store.

    ``store`` is a :class:`~repro.persist.chainstore.ChainStore` (typed
    loosely to keep this module import-light).  The record mirrors the
    chain-derived fields of :func:`metrics_to_record` — height, mean
    block interval, per-miner distribution — plus store-only counts.
    """
    timestamps = store.block_timestamps()
    intervals = [
        later - earlier for earlier, later in zip(timestamps, timestamps[1:])
    ]
    mean_interval = (
        sum(intervals) / len(intervals) if intervals else float("nan")
    )
    return {
        "chain_height": store.height(),
        "block_count": store.block_count(),
        "metadata_count": store.metadata_count(),
        "tip_hash": store.tip_hash(),
        "mean_block_interval_s": mean_interval,
        "blocks_mined": {
            str(node): count for node, count in sorted(store.miner_distribution().items())
        },
        "accounts": len(store.accounts()),
    }


def write_csv(records: Sequence[Mapping[str, object]], path: PathLike) -> Path:
    """Write records as CSV (scalar fields only; dicts are JSON-encoded)."""
    if not records:
        raise ValueError("no records to write")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fieldnames: List[str] = []
    for record in records:
        for key in record:
            if key not in fieldnames:
                fieldnames.append(key)
    with target.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            row = {
                key: json.dumps(value) if isinstance(value, (dict, list)) else value
                for key, value in record.items()
            }
            writer.writerow(row)
    return target
