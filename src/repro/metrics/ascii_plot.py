"""Terminal-friendly plots: horizontal bars and sparklines.

Verbs print figure *data* as tables; these helpers add a visual cue in
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


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart with right-aligned values.

    Bars scale to the maximum value; zero/negative values get empty bars
    (negative magnitudes are not meaningful for the quantities we plot).
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if width < 1:
        raise ValueError("width must be positive")
    if not labels:
        return ""
    peak = max((v for v in values if math.isfinite(v)), default=0.0)
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        if not math.isfinite(value) or peak <= 0:
            filled = 0
        else:
            filled = max(0, min(width, round(value / peak * width)))
        bar = "█" * filled
        shown = f"{value:.4g}{unit}" if math.isfinite(value) else "nan"
        lines.append(f"{str(label).rjust(label_width)} | {bar.ljust(width)} {shown}")
    return "\n".join(lines)

