"""The Gini coefficient — the paper's storage-fairness metric.

Footnote 3 of the paper:  ``Gini = Σ_i Σ_j |t_i − t_j| / (2 Σ_i Σ_j t_j)``,
where ``t_i`` is node *i*'s storage consumption.  0 means perfectly equal
storage; the paper reports < 0.15 across all Fig. 4(b) settings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def gini_coefficient(values: Sequence[float]) -> float:
    """Compute the Gini coefficient of ``values``.

    Uses the paper's mean-absolute-difference definition, computed in
    O(n log n) via the sorted-weights identity.  All-zero input is defined
    as 0 (perfect equality of nothing).  Negative values are rejected —
    storage consumption cannot be negative.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if data.size == 0:
        raise ValueError("need at least one value")
    if np.any(data < 0):
        raise ValueError("Gini is undefined for negative values")
    total = data.sum()
    if total == 0:
        return 0.0
    n = data.size
    sorted_values = np.sort(data)
    # Σ_i Σ_j |x_i − x_j| = 2 Σ_i (2i − n + 1) x_(i)  with i zero-based.
    ranks = 2 * np.arange(1, n + 1) - n - 1
    mean_abs_diff_sum = 2.0 * float(np.dot(ranks, sorted_values))
    # Clamp: float cancellation can yield a tiny negative for equal inputs.
    return max(0.0, mean_abs_diff_sum / (2.0 * n * total))


def gini_pairwise(values: Sequence[float]) -> float:
    """The literal O(n²) double-sum from the paper's footnote.

    Kept as the reference implementation; the property-based tests assert
    it matches :func:`gini_coefficient` exactly.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value")
    if np.any(data < 0):
        raise ValueError("Gini is undefined for negative values")
    total = data.sum()
    if total == 0:
        return 0.0
    diffs = np.abs(data[:, None] - data[None, :]).sum()
    return float(diffs / (2.0 * data.size * total))
