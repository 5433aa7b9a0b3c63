"""Sim-clock-driven timeline: periodic samples of protocol state.

The span/metric layer (PR 2) records *what the code did*; the timeline
records *what the protocol looked like* while it did it — one sample per
``interval`` seconds of simulated time, each a flat JSON-ready dict of
the quantities the paper's own analysis turns on:

* chain height and the EWMA of inter-block intervals against the target
  ``t0`` (Eq. 14 tunes the amendment ``B`` so blocks land every ``t0``);
* fairness-degree pressure (Eq. 1): the largest finite
  ``f_i = W(i)/(W_tol(i) − W(i))``, the smallest remaining storage
  margin, and how many nodes are outright saturated;
* the storage Gini coefficient (Fig. 6's fairness metric);
* stake share of the top-k token holders (PoS concentration);
* recent-block coverage — the fraction of nodes holding each of the
  newest blocks (Section IV-C's pervasiveness goal);
* engine queue depth.

Sampling is driven from :func:`repro.obs.runtime.timeline_tick` inside
the engine's existing observability branch — **never** from events on the
engine queue.  Scheduling our own events would perturb event sequence
numbers; a read-only probe invoked between events cannot, which is what
keeps the digest-identity guarantee (obs on == obs off) intact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.metrics.gini import gini_coefficient

PathLike = Union[str, Path]

TIMELINE_NAME = "timeline.jsonl"
TIMELINE_SCHEMA = "repro.obs.timeline/v1"

#: Smoothing factor for the inter-block-interval EWMA.
EWMA_ALPHA = 0.3

#: How many token holders count as "the top" for stake concentration.
STAKE_TOP_K = 3

#: How many of the newest blocks enter the coverage average.
COVERAGE_WINDOW = 5


def _jsonable(value: Any) -> Any:
    """Strict-JSON scalar: non-finite floats become None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class RuntimeProbe:
    """Read-only view over a live cluster, producing timeline samples.

    The probe keeps a cursor into the reference (longest) chain so the
    interval EWMA walks each block exactly once; a reorg that shortens
    the reference chain simply rewinds the cursor.  Nothing here mutates
    simulation state or consumes simulation randomness.
    """

    def __init__(self, cluster: Any):
        self._cluster = cluster
        self._cursor_height = 0
        self._interval_ewma = math.nan
        self._intervals_seen = 0

    def _update_interval_ewma(self, chain: Any) -> None:
        height = chain.height
        if self._cursor_height > height:  # reorg rewound the reference chain
            self._cursor_height = height
            return
        # Pruning may have dropped bodies the cursor hasn't walked yet; the
        # EWMA then simply skips the cold gap rather than faulting on them.
        floor = getattr(chain, "first_retained_index", 0)
        if self._cursor_height < floor:
            self._cursor_height = floor
        for index in range(self._cursor_height + 1, height + 1):
            interval = (
                chain.block_at(index).timestamp
                - chain.block_at(index - 1).timestamp
            )
            if self._intervals_seen == 0:
                self._interval_ewma = interval
            else:
                self._interval_ewma = (
                    EWMA_ALPHA * interval
                    + (1.0 - EWMA_ALPHA) * self._interval_ewma
                )
            self._intervals_seen += 1
        self._cursor_height = height

    def _fairness(self, usage: Dict[int, int], capacity: float) -> Tuple[float, float, int]:
        """(max finite f_i, min margin, saturated-node count) per Eq. 1.

        ``used_slots`` can exceed the nominal capacity (chain-assigned
        storage is not admission-controlled), so W is clamped to W_tol
        and over-full nodes count as saturated rather than producing a
        negative denominator.
        """
        fairness_max = math.nan
        margin_min = math.inf
        saturated = 0
        for used in usage.values():
            clamped = min(float(used), capacity)
            margin = capacity - clamped
            margin_min = min(margin_min, margin)
            if margin <= 0:
                saturated += 1
                continue
            fairness = clamped / margin
            if math.isnan(fairness_max) or fairness > fairness_max:
                fairness_max = fairness
        if not usage:
            margin_min = math.nan
        return fairness_max, margin_min, saturated

    def _stake_top_share(self, state: Any) -> float:
        tokens = sorted(
            (state.tokens(node) for node in state.node_ids), reverse=True
        )
        total = sum(tokens)
        if total <= 0:
            return math.nan
        return sum(tokens[:STAKE_TOP_K]) / total

    def _chaos_fields(self) -> Dict[str, Any]:
        """Cluster-wide admission-control totals (0 on honest runs).

        Works against both fabrics: sim clusters expose ``nodes`` as a
        list of :class:`EdgeNode`, the live harness as a dict of
        ``LiveNode`` wrappers with a ``.node`` attribute.
        """
        nodes = getattr(self._cluster, "nodes", None)
        if nodes is None:
            return {"chaos_rejections": None, "chaos_quarantined": None}
        members = nodes.values() if isinstance(nodes, dict) else nodes
        rejections = 0
        quarantined = 0
        for member in members:
            node = getattr(member, "node", member)
            admission = getattr(node, "admission", None)
            if admission is None:
                continue
            rejections += admission.total_rejections
            quarantined += len(admission.quarantined)
        return {"chaos_rejections": rejections, "chaos_quarantined": quarantined}

    def _mempool_depth(self) -> Optional[int]:
        """Deepest per-node mempool (both fabrics; None when unknown)."""
        nodes = getattr(self._cluster, "nodes", None)
        if nodes is None:
            return None
        members = nodes.values() if isinstance(nodes, dict) else nodes
        depths = [
            len(getattr(member, "node", member).mempool) for member in members
        ]
        return max(depths) if depths else None

    def _lifecycle_fields(self, chain: Any, config: Any) -> Dict[str, Any]:
        """Hot-footprint fields (None when the run has no lifecycle spec).

        ``hot_blocks`` is the in-memory body count of the reference chain;
        ``hot_bound`` the worst-case bound :func:`hot_bound_blocks` derives
        from the spec.  The storage-unbounded monitor compares the two.
        """
        if getattr(config, "lifecycle", None) is None:
            return {
                "hot_blocks": None,
                "hot_bound": None,
                "first_retained": None,
            }
        from repro.lifecycle.spec import hot_bound_blocks

        return {
            "hot_blocks": chain.retained_blocks,
            "hot_bound": hot_bound_blocks(config),
            "first_retained": chain.first_retained_index,
        }

    def _recent_coverage(self, chain: Any) -> float:
        """Average holder fraction over the newest ``COVERAGE_WINDOW`` blocks.

        A block's holders are its permanent storing nodes plus every node
        whose recent-block FIFO cache currently contains it (Section
        IV-C).  Genesis is excluded — every node holds it by construction.
        """
        state = chain.state
        node_ids = state.node_ids
        height = chain.height
        if height < 1 or not node_ids:
            return math.nan
        first = max(1, height - COVERAGE_WINDOW + 1)
        caches = {node: set(state.recent_cache_of(node)) for node in node_ids}
        fractions = []
        for index in range(first, height + 1):
            holders = set(state.block_storing.get(index, ()))
            holders.update(
                node for node, cache in caches.items() if index in cache
            )
            fractions.append(len(holders & set(node_ids)) / len(node_ids))
        return sum(fractions) / len(fractions)

    def sample(self, now: float) -> Dict[str, Any]:
        cluster = self._cluster
        chain = cluster.longest_chain_node().chain
        state = chain.state
        config = cluster.config
        self._update_interval_ewma(chain)
        t0 = config.expected_block_interval
        usage = state.storage_snapshot(now)
        fairness_max, margin_min, saturated = self._fairness(
            usage, float(config.storage_capacity)
        )
        return {
            "t": now,
            "height": chain.height,
            "interval_ewma": self._interval_ewma,
            "interval_ratio": (
                self._interval_ewma / t0 if self._intervals_seen else math.nan
            ),
            "intervals_seen": self._intervals_seen,
            "fairness_max": fairness_max,
            "fairness_margin_min": margin_min,
            "saturated_nodes": saturated,
            "storage_gini": (
                gini_coefficient(list(usage.values())) if usage else math.nan
            ),
            "stake_topk_share": self._stake_top_share(state),
            "coverage_recent": self._recent_coverage(chain),
            "queue_depth": cluster.engine.queue_depth,
            "mempool_depth": self._mempool_depth(),
            **self._chaos_fields(),
            **self._lifecycle_fields(chain, config),
        }


class Timeline:
    """Grid-aligned periodic sampler, ticked from the engine's obs branch.

    ``maybe_sample(now)`` fires at most once per ``interval`` of simulated
    time; the next due time is snapped to the sampling grid
    (``(⌊now/interval⌋+1)·interval``) so long event gaps don't cause a
    burst of catch-up samples.  Until :meth:`attach` hands it a cluster,
    ticks are no-ops — the CLI enables observability before the runtime
    exists.
    """

    def __init__(self, interval: float):
        if interval <= 0:
            raise ValueError("timeline interval must be positive")
        self.interval = float(interval)
        self.samples: List[Dict[str, Any]] = []
        self._probe: Optional[Any] = None
        self._next_at = 0.0

    def attach(self, cluster: Any) -> None:
        """Point the probe at a (new) cluster; sampling starts on next tick."""
        self._probe = RuntimeProbe(cluster)

    @property
    def attached(self) -> bool:
        return self._probe is not None

    def maybe_sample(self, now: float) -> Optional[Dict[str, Any]]:
        if self._probe is None or now < self._next_at:
            return None
        sample = self._probe.sample(now)
        self.samples.append(sample)
        self._next_at = (math.floor(now / self.interval) + 1) * self.interval
        return sample

    def last_sample(self) -> Optional[Dict[str, Any]]:
        return self.samples[-1] if self.samples else None

    def write_jsonl(self, path: PathLike) -> Path:
        """One header line (schema + interval), then one line per sample."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            header = {
                "schema": TIMELINE_SCHEMA,
                "interval": self.interval,
                "samples": len(self.samples),
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for sample in self.samples:
                row = {key: _jsonable(value) for key, value in sample.items()}
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        return target


def read_timeline(path: PathLike) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a timeline JSONL file back as ``(header, samples)``."""
    source = Path(path)
    header: Dict[str, Any] = {}
    samples: List[Dict[str, Any]] = []
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if line_number == 0 and "schema" in record:
                header = record
            else:
                samples.append(record)
    return header, samples
