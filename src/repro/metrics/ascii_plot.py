"""Terminal-friendly plots: sparklines.

Verbs print figure *data* as tables; a sparkline adds a visual cue in
the same terminal output without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import List, Sequence

#: Unicode eighth-blocks for sparklines, shortest to tallest.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of ``values`` (empty input → empty string).

    NaNs render as spaces; the scale spans [min, max] of the finite values.
    """
    finite = [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
    if not finite:
        return " " * len(list(values))
    low, high = min(finite), max(finite)
    span = high - low
    chars: List[str] = []
    for value in values:
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            chars.append(" ")
            continue
        if span == 0:
            chars.append(_SPARK_LEVELS[len(_SPARK_LEVELS) // 2])
            continue
        level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)

