"""Counters, gauges, and mergeable log2 histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — a monotonically increasing integer (events, attempts,
  bytes);
* :class:`Gauge` — a last-value-wins float that also tracks its extrema
  (queue depth, cache size);
* :class:`Histogram` — a fixed-bucket log2 histogram.  Bucket ``k`` counts
  values in ``[2^(k+MIN_EXP), 2^(k+MIN_EXP+1))``; the first and last
  buckets absorb underflow and overflow.  Because the bucket edges are
  *fixed* (not adaptive), two histograms — and therefore two registry
  snapshots from different runs or shards — merge by plain element-wise
  addition, which the Hypothesis merge property in the test-suite pins
  down.

Everything serialises to plain JSON (:meth:`MetricsRegistry.snapshot`)
and back (:func:`merge_snapshots`), with no dependencies beyond the
standard library.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.export import write_json

#: Exponent of the lower edge of the first regular bucket: 2^-20 ≈ 1 µs
#: when values are seconds, which comfortably brackets fsync latencies.
MIN_EXP = -20

#: Exponent of the upper edge of the last regular bucket: 2^64 covers the
#: full range of PoS hits (h_i < M = 2^64).
MAX_EXP = 64

#: Regular bucket count; index 0 additionally absorbs values < 2^MIN_EXP
#: (including zero and negatives) and the last bucket absorbs ≥ 2^MAX_EXP.
BUCKET_COUNT = MAX_EXP - MIN_EXP


def bucket_index(value: Union[int, float]) -> int:
    """The fixed log2 bucket a value falls into.

    ``2^e`` lands in the bucket whose lower edge is ``2^e`` exactly; the
    edges are therefore half-open ``[2^e, 2^(e+1))`` intervals.
    """
    if value <= 0:
        return 0
    if isinstance(value, int):
        exponent = value.bit_length() - 1  # exact for arbitrary-size ints
    else:
        mantissa, exp = math.frexp(value)  # value = mantissa * 2^exp, mantissa in [0.5, 1)
        exponent = exp - 1
    return max(0, min(BUCKET_COUNT - 1, exponent - MIN_EXP))


def bucket_lower_edge(index: int) -> float:
    """Lower edge of bucket ``index`` (0 ≤ index < BUCKET_COUNT)."""
    if not 0 <= index < BUCKET_COUNT:
        raise IndexError(f"bucket index {index} out of range")
    return 2.0 ** (index + MIN_EXP)


def percentile(values: Iterable[float], q: float) -> float:
    """Exact percentile ``q`` ∈ [0, 100] with linear interpolation.

    Matches ``numpy.percentile``'s default (``method="linear"``) so the
    experiment-harness summaries (:class:`repro.metrics.stats.Summary`)
    can delegate here instead of keeping a parallel implementation.
    NaN for an empty sample.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    data = sorted(float(v) for v in values)
    if not data:
        return math.nan
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lower = math.floor(rank)
    upper = min(lower + 1, len(data) - 1)
    fraction = rank - lower
    return data[lower] + fraction * (data[upper] - data[lower])


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Exact five-number-ish summary of a sample (population std).

    The single source of summary math for both the observability layer and
    the experiment harness.  All fields are NaN when the sample is empty.
    """
    data = [float(v) for v in values]
    if not data:
        nan = math.nan
        return {
            "count": 0, "mean": nan, "std": nan, "min": nan,
            "median": nan, "p95": nan, "max": nan,
        }
    mean = math.fsum(data) / len(data)
    variance = math.fsum((v - mean) ** 2 for v in data) / len(data)
    return {
        "count": len(data),
        "mean": mean,
        "std": math.sqrt(variance),
        "min": min(data),
        "median": percentile(data, 50.0),
        "p95": percentile(data, 95.0),
        "max": max(data),
    }


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value instrument that remembers its extrema."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.min = min(self.min, self.value)
        self.max = max(self.max, self.value)
        self.updates += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": None if self.updates == 0 else self.min,
            "max": None if self.updates == 0 else self.max,
            "updates": self.updates,
        }


class Histogram:
    """A fixed-bucket log2 histogram with exact count/sum/min/max."""

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * BUCKET_COUNT
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: Union[int, float]) -> None:
        self.buckets[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        value_f = float(value)
        self.min = min(self.min, value_f)
        self.max = max(self.max, value_f)

    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (fixed edges make this exact)."""
        for index, count in enumerate(other.buckets):
            self.buckets[index] += count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        # Sparse encoding: only non-empty buckets, keyed by index.
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {
                str(index): count
                for index, count in enumerate(self.buckets)
                if count
            },
        }


_INSTRUMENT_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A flat namespace of named instruments, get-or-create on first use.

    Names are dotted ``subsystem.instrument`` strings (``pos.hits``,
    ``persist.fsync_seconds``).  Asking for an existing name with a
    different instrument type raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready dump of every instrument."""
        return {
            "schema": "repro.obs.metrics/v1",
            "instruments": {
                name: instrument.to_dict()
                for name, instrument in sorted(self._instruments.items())
            },
        }

    def clear(self) -> None:
        self._instruments.clear()

    def write_json(self, path: Union[str, Path]) -> Path:
        return write_json(self.snapshot(), path)


def _merge_instrument(
    merged: Dict[str, Any], incoming: Dict[str, Any], name: str
) -> Dict[str, Any]:
    kind = incoming.get("type")
    if merged.get("type") != kind:
        raise ValueError(
            f"cannot merge metric {name!r}: {merged.get('type')} vs {kind}"
        )
    if kind == "counter":
        return {"type": "counter", "value": merged["value"] + incoming["value"]}
    if kind == "gauge":
        # Last-writer-wins on value is meaningless across shards; keep the
        # extrema and total update count, and the max of the final values.
        bounds = [
            b for b in (merged["min"], incoming["min"]) if b is not None
        ]
        tops = [b for b in (merged["max"], incoming["max"]) if b is not None]
        return {
            "type": "gauge",
            "value": max(merged["value"], incoming["value"]),
            "min": min(bounds) if bounds else None,
            "max": max(tops) if tops else None,
            "updates": merged["updates"] + incoming["updates"],
        }
    if kind == "histogram":
        buckets = dict(merged["buckets"])
        for index, count in incoming["buckets"].items():
            buckets[index] = buckets.get(index, 0) + count
        mins = [b for b in (merged["min"], incoming["min"]) if b is not None]
        maxes = [b for b in (merged["max"], incoming["max"]) if b is not None]
        return {
            "type": "histogram",
            "count": merged["count"] + incoming["count"],
            "sum": merged["sum"] + incoming["sum"],
            "min": min(mins) if mins else None,
            "max": max(maxes) if maxes else None,
            "buckets": buckets,
        }
    raise ValueError(f"unknown instrument type {kind!r} in metric {name!r}")


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge registry snapshots element-wise (shards, resumed segments).

    The result of merging per-shard snapshots equals the snapshot a single
    registry would have produced had it seen every observation — the
    property test in ``tests/property/test_prop_obs_merge.py`` holds the
    implementation to exactly that.
    """
    merged: Dict[str, Any] = {}
    schema: Optional[str] = None
    for snapshot in snapshots:
        schema = snapshot.get("schema", schema)
        for name, instrument in snapshot.get("instruments", {}).items():
            if name not in merged:
                merged[name] = json.loads(json.dumps(instrument))  # deep copy
            else:
                merged[name] = _merge_instrument(merged[name], instrument, name)
    return {"schema": schema or "repro.obs.metrics/v1", "instruments": merged}
