"""Fig. 6 reproduction — remaining battery vs blocks mined, PoW vs PoS.

The paper mines on a fully charged Galaxy S8 with PoW at difficulty 4
(25 s average block time) and PoS tuned to the same block time, recording
the remaining battery after each block.  Reported anchors:

* PoW: ≈4 blocks per 1 % battery; >50 % battery gone in 84 minutes.
* PoS: ≈11 blocks per 1 % battery; <20 % battery gone in 84 minutes.
* Headline: PoS uses ≈64 % less energy.
"""

from __future__ import annotations

import pytest

from repro.metrics.report import render_table
from repro.sim.scenarios import mining_session, pos_energy_saving, session_at

SESSION_MINUTES = 84.0  # the paper's run length


def test_fig6_battery_drain(benchmark):
    pow_series, pos_series = benchmark.pedantic(
        lambda: (
            mining_session("pow", SESSION_MINUTES, seed=0),
            mining_session("pos", SESSION_MINUTES, seed=0),
        ),
        rounds=1,
        iterations=1,
    )
    # Print the figure as a sampled series.
    rows = []
    for minutes in range(0, int(SESSION_MINUTES) + 1, 12):
        pow_point = session_at(pow_series, minutes)
        pos_point = session_at(pos_series, minutes)
        rows.append([minutes, pow_point[0], pow_point[2], pos_point[0], pos_point[2]])
    print()
    print(
        render_table(
            "Fig. 6 — remaining battery vs mining time (Galaxy S8 model)",
            ["minutes", "PoW blocks", "PoW battery %", "PoS blocks", "PoS battery %"],
            rows,
        )
    )
    from repro.metrics.ascii_plot import series_plot

    print()
    print(
        series_plot(
            [row[0] for row in rows],
            [[row[2] for row in rows], [row[4] for row in rows]],
            ["PoW battery %", "PoS battery %"],
        )
    )

    pow_final = pow_series[-1][2]
    pos_final = pos_series[-1][2]
    pow_blocks = pow_series[-1][0]
    pos_blocks = pos_series[-1][0]
    pow_blocks_per_percent = pow_blocks / (100.0 - pow_final)
    pos_blocks_per_percent = pos_blocks / (100.0 - pos_final)
    print(f"\nPoW: {pow_blocks_per_percent:.1f} blocks per 1% battery "
          f"(paper: ~4); consumed {100 - pow_final:.1f}% in 84 min (paper: >50%)")
    print(f"PoS: {pos_blocks_per_percent:.1f} blocks per 1% battery "
          f"(paper: ~11); consumed {100 - pos_final:.1f}% in 84 min (paper: <20%)")

    # Paper anchors (generous tolerance: attempt counts are sampled).
    assert pow_blocks_per_percent == pytest.approx(4.0, rel=0.3)
    assert pos_blocks_per_percent == pytest.approx(11.0, rel=0.3)
    assert 100.0 - pow_final > 50.0
    assert 100.0 - pos_final < 20.0


def test_fig6_energy_saving_headline(benchmark):
    value = benchmark.pedantic(pos_energy_saving, args=(1,), rounds=1, iterations=1)
    print(f"\nPoS consumes {value:.1f}% less energy per block than PoW "
          f"(paper: 64% less)")
    assert value == pytest.approx(64.0, abs=8.0)
