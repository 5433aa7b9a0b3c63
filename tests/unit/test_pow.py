"""Unit tests for the PoW baseline."""

import numpy as np
import pytest

from repro.core.pow import PAPER_HASH_RATE, PAPER_POW_DIFFICULTY, PowMiner
from repro.energy.meter import EnergyMeter


class TestDifficulty:
    def test_expected_attempts(self):
        # Attempts are geometric in the success probability 16^-d.
        for difficulty, attempts in ((0, 1), (1, 16), (4, 65536)):
            miner = PowMiner(EnergyMeter(), difficulty=difficulty)
            assert 1 / miner.success_probability == attempts

    def test_paper_difficulty_constant(self):
        assert PAPER_POW_DIFFICULTY == 4

    def test_paper_hash_rate_gives_25s_blocks(self):
        assert 16**PAPER_POW_DIFFICULTY / PAPER_HASH_RATE == pytest.approx(25.0)

    def test_negative_difficulty_rejected(self):
        with pytest.raises(ValueError):
            PowMiner(EnergyMeter(), difficulty=-1)


class TestPowMiner:
    def test_sampled_attempts_near_expectation(self, rng):
        miner = PowMiner(EnergyMeter(), difficulty=4)
        results = [miner.mine_block(rng) for _ in range(300)]
        mean_attempts = np.mean([r.attempts for r in results])
        assert mean_attempts == pytest.approx(65536, rel=0.15)

    def test_duration_follows_hash_rate(self, rng):
        miner = PowMiner(EnergyMeter(), difficulty=2, hash_rate=100.0)
        result = miner.mine_block(rng)
        assert result.duration_seconds == pytest.approx(result.attempts / 100.0)

    def test_energy_drains_battery(self, rng):
        meter = EnergyMeter()
        miner = PowMiner(meter, difficulty=4)
        before = meter.remaining_percent
        miner.mine_block(rng)
        assert meter.remaining_percent < before

    def test_battery_percent_monotone(self, rng):
        miner = PowMiner(EnergyMeter(), difficulty=4)
        results = [miner.mine_block(rng) for _ in range(20)]
        percents = [r.battery_remaining_percent for r in results]
        assert percents == sorted(percents, reverse=True)

    def test_paper_blocks_per_percent(self, rng):
        # ~4 blocks per 1 % of battery at difficulty 4 (Fig. 6).
        meter = EnergyMeter()
        miner = PowMiner(meter, difficulty=4)
        results = []
        while meter.remaining_percent > 90.0:
            results.append(miner.mine_block(rng))
        blocks_per_percent = len(results) / (100.0 - meter.remaining_percent)
        assert blocks_per_percent == pytest.approx(4.0, rel=0.2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowMiner(EnergyMeter(), difficulty=-1)
        with pytest.raises(ValueError):
            PowMiner(EnergyMeter(), hash_rate=0.0)
