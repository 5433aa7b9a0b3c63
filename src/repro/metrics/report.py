"""Plain-text tabular reports for the CLI.

``repro reproduce`` prints the same rows/series the paper's figures plot,
and the run and observability verbs their summaries; this module renders
them as aligned text tables so the numbers are readable in CI logs.
"""

from __future__ import annotations

from typing import List, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 4) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    precision: int = 4,
) -> str:
    """Render an aligned text table with a title rule: numbers
    right-justified, every other cell left-justified."""
    text_rows: List[List[str]] = [
        [format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * max(len(title), 1)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row, text_row in zip(rows, text_rows):
        lines.append(
            "  ".join(
                text.rjust(widths[i]) if _is_number(cell) else text.ljust(widths[i])
                for i, (cell, text) in enumerate(zip(row, text_row))
            )
        )
    return "\n".join(lines)


def _is_number(cell: Cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    precision: int = 4,
) -> None:
    print()
    print(render_table(title, headers, rows, precision))
    print()
