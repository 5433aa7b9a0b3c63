#!/usr/bin/env python3
"""Do two result sets of the same commit agree within the benchmark's bounds?

    python3 bench/agree.py A.json B.json

Both files come from ``bench/run.py --out``.  One row per (workload,
metric) with both medians and the verdict:

* end-to-end (host-time) metrics — within the metric's ``bound`` of
  ``BENCHMARK.json``, measured from the better of the two values;
* digests — identical wherever the workload is a function of its seed
  (the two simulator workloads and the storage plane);
* simulated-time quality metrics — identical on those workloads; on the
  live one (real sockets, wall clock: which replica a request reaches
  first is not a function of the seed) within :data:`LIVE_QUALITY_BOUND`,
  or :data:`LIVE_QUALITY_FLOOR` apart for values near zero;
* ``failed_share`` — B's not higher than A's.

Exit 0 when everything agrees, 1 on a disagreement, 2 when the two files
cannot be compared (smoke against full, different commits or seeds).
Deliberately self-contained: it imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Tolerance for the live workload's simulated-time metrics: relative,
#: and absolute for the near-zero ones (its 8-node Gini is ≈0.008, where
#: one item stored elsewhere is a 50 % change).
LIVE_QUALITY_BOUND = 0.10
LIVE_QUALITY_FLOOR = 0.01


class Incomparable(Exception):
    """The two result sets are not runs of the same thing."""


def _load(path: str) -> Dict[str, Any]:
    result = json.loads(Path(path).read_text(encoding="utf-8"))
    if result.get("schema") != "repro.bench.result/v1":
        raise Incomparable(f"{path} is not a bench/run.py result set")
    return result


def _gap(a: float, b: float, better: str) -> float:
    """How much worse the worse value is, as a share of the better one."""
    low, high = min(a, b), max(a, b)
    base = low if better == "lower" else high
    return (high - low) / base if base else (0.0 if high == low else float("inf"))


def compare(a: Dict[str, Any], b: Dict[str, Any], manifest: Dict[str, Any]) -> List[Tuple]:
    """Rows ``(workload, metric, a, b, ok, note)`` for every shared workload."""
    if a["smoke"] != b["smoke"]:
        raise Incomparable("one result set is a --smoke run and the other is not")
    for key in ("commit", "seed"):
        if a["record"][key] != b["record"][key]:
            raise Incomparable(f"{key} differs: {a['record'][key]} vs {b['record'][key]}")
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    if not shared:
        raise Incomparable("the result sets share no workload")
    rows: List[Tuple] = []
    for workload in shared:
        ours, theirs = a["workloads"][workload], b["workloads"][workload]
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            if name not in ours.get("end_to_end", {}) or name not in theirs.get("end_to_end", {}):
                continue
            x, y = ours["end_to_end"][name]["median"], theirs["end_to_end"][name]["median"]
            gap = _gap(x, y, metric["better"])
            rows.append(
                (workload, name, x, y, gap <= metric["bound"], f"gap {gap:.3f} ≤ {metric['bound']}")
            )
        exact = ours["deterministic"] and theirs["deterministic"]
        if exact:
            for name, value in ours["digests"].items():
                other = theirs["digests"].get(name)
                rows.append((workload, name, value[:12], str(other)[:12], value == other, "identical"))
        for name, x in ours["quality"].items():
            y = theirs["quality"][name]
            if exact:
                rows.append((workload, name, x, y, x == y, "identical"))
            else:
                gap = _gap(x, y, "lower")
                close = gap <= LIVE_QUALITY_BOUND or abs(x - y) <= LIVE_QUALITY_FLOOR
                rows.append(
                    (workload, name, x, y, close, f"gap {gap:.3f} ≤ {LIVE_QUALITY_BOUND} or within {LIVE_QUALITY_FLOOR}")
                )
        x = ours["failed"] / ours["attempted"]
        y = theirs["failed"] / theirs["attempted"]
        rows.append((workload, "failed_share", x, y, y <= x, "B not higher"))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        rows = compare(_load(argv[0]), _load(argv[1]), manifest)
    except (Incomparable, OSError, json.JSONDecodeError, KeyError) as error:
        print(f"cannot compare: {error!r}", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<32} {'A':>16} {'B':>16}  verdict")
    for workload, metric, x, y, ok, note in rows:
        shown = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in (x, y)]
        print(
            f"{workload:<16} {metric:<32} {shown[0]:>16} {shown[1]:>16}  "
            f"{'agree' if ok else 'DISAGREE'} ({note})"
        )
    disagreements = sum(1 for row in rows if not row[4])
    print(f"{len(rows)} comparisons, {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
