"""The paper's abstract headline numbers, regenerated in one place.

"On average, the new system uses 15% less time and consumes 64% less
battery power when compared with traditional blockchain systems", plus the
contribution list's "fair data storage with disparity measurement less
than 0.15".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.report import render_table
from repro.sim.scenarios import PAPER_NODE_COUNTS, pos_energy_saving


def test_headline_numbers(benchmark, fig5_sweep, fig4_sweep, headline_sink):
    def compute():
        optimal = np.mean(
            [fig5_sweep[("greedy", n)]["delivery"] for n in PAPER_NODE_COUNTS]
        )
        random_ = np.mean(
            [fig5_sweep[("random", n)]["delivery"] for n in PAPER_NODE_COUNTS]
        )
        time_saving = 100.0 * (1.0 - optimal / random_)
        energy_saving = pos_energy_saving(seed=0)
        worst_gini = max(cell["gini"] for cell in fig4_sweep.values())
        return time_saving, energy_saving, worst_gini

    time_saving, energy_saving, worst_gini = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    sink_path = headline_sink(
        {
            "time_saving_percent": time_saving,
            "energy_saving_percent": energy_saving,
            "worst_gini": worst_gini,
            "fig4": {
                f"n{nodes}-r{rate:g}": cell
                for (nodes, rate), cell in sorted(fig4_sweep.items())
            },
            "fig5": {
                f"{solver}-n{nodes}": cell
                for (solver, nodes), cell in sorted(fig5_sweep.items())
            },
        }
    )
    print()
    print(f"wrote {sink_path}")
    print(
        render_table(
            "Headline claims (paper vs measured)",
            ["claim", "paper", "measured"],
            [
                ["data access time saved vs random store", "15% less", f"{time_saving:.1f}% less"],
                ["mining energy saved vs PoW", "64% less", f"{energy_saving:.1f}% less"],
                ["worst-case storage Gini", "< 0.15", f"{worst_gini:.3f}"],
            ],
        )
    )
    assert time_saving > 3.0  # optimal placement wins
    assert energy_saving == pytest.approx(64.0, abs=8.0)
    assert worst_gini < 0.15
