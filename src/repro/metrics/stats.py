"""Summary statistics helpers used by the experiment harness.

Percentile/summary math lives in :mod:`repro.obs.metrics` (the
observability layer's exact helpers); :class:`Summary` is a thin typed
view over :func:`repro.obs.metrics.summarize` rather than a parallel
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.metrics import summarize


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p95: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        stats = summarize(values)
        return cls(
            count=stats["count"],
            mean=stats["mean"],
            std=stats["std"],
            minimum=stats["min"],
            median=stats["median"],
            p95=stats["p95"],
            maximum=stats["max"],
        )

    def __str__(self) -> str:
        if self.count == 0:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} med={self.median:.4g} "
            f"p95={self.p95:.4g} max={self.maximum:.4g}"
        )


def mean_or_nan(values: Sequence[float]) -> float:
    """Mean of a possibly empty sequence (NaN when empty)."""
    data = list(values)
    if not data:
        return float("nan")
    return float(np.mean(data))

