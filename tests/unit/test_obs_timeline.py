"""Unit tests for the protocol timeline sampler and its read-only probe."""

import math

import pytest

from repro.obs.timeline import (
    EWMA_ALPHA,
    TIMELINE_SCHEMA,
    RuntimeProbe,
    Timeline,
    read_timeline,
)

pytestmark = pytest.mark.obs


# -- stand-ins for just enough of the chain/state API -----------------------------------


class FakeBlock:
    def __init__(self, timestamp):
        self.timestamp = timestamp


class FakeChain:
    """A chain defined purely by its block timestamps (index 0 = genesis)."""

    def __init__(self, timestamps, state=None):
        self.timestamps = list(timestamps)
        self.state = state

    @property
    def height(self):
        return len(self.timestamps) - 1

    def block_at(self, index):
        return FakeBlock(self.timestamps[index])


class FakeState:
    def __init__(self, node_ids, tokens=None, block_storing=None, caches=None):
        self.node_ids = list(node_ids)
        self._tokens = dict(tokens or {})
        self.block_storing = dict(block_storing or {})
        self._caches = dict(caches or {})

    def tokens(self, node):
        return self._tokens.get(node, 0)

    def recent_cache_of(self, node):
        return self._caches.get(node, ())


class FakeProbe:
    """Probe stub: the timeline only needs ``sample(now)``."""

    def sample(self, now):
        return {"t": now, "height": int(now)}


class TestIntervalEwma:
    def test_first_interval_seeds_the_ewma(self):
        probe = RuntimeProbe(cluster=None)
        probe._update_interval_ewma(FakeChain([0.0, 20.0]))
        assert probe._interval_ewma == 20.0
        assert probe._intervals_seen == 1

    def test_later_intervals_blend_with_alpha(self):
        probe = RuntimeProbe(cluster=None)
        probe._update_interval_ewma(FakeChain([0.0, 20.0, 30.0]))
        expected = EWMA_ALPHA * 10.0 + (1.0 - EWMA_ALPHA) * 20.0
        assert probe._interval_ewma == pytest.approx(expected)
        assert probe._intervals_seen == 2

    def test_cursor_walks_each_block_exactly_once(self):
        probe = RuntimeProbe(cluster=None)
        chain = FakeChain([0.0, 20.0, 30.0])
        probe._update_interval_ewma(chain)
        before = probe._interval_ewma
        probe._update_interval_ewma(chain)  # no new blocks
        assert probe._interval_ewma == before
        assert probe._intervals_seen == 2

    def test_reorg_rewinds_the_cursor_without_double_counting(self):
        probe = RuntimeProbe(cluster=None)
        probe._update_interval_ewma(FakeChain([0.0, 20.0, 30.0]))
        # The reference chain shrank (a different fork won).
        probe._update_interval_ewma(FakeChain([0.0, 20.0]))
        assert probe._intervals_seen == 2
        # Growth after the reorg resumes from the rewound cursor.
        probe._update_interval_ewma(FakeChain([0.0, 20.0, 45.0]))
        assert probe._intervals_seen == 3


class TestFairness:
    def test_half_full_node_has_fairness_one(self):
        probe = RuntimeProbe(cluster=None)
        fairness, margin, saturated = probe._fairness({1: 30}, 60.0)
        assert fairness == pytest.approx(1.0)  # W/(W_tol - W) = 30/30
        assert margin == pytest.approx(30.0)
        assert saturated == 0

    def test_fullest_node_dominates(self):
        probe = RuntimeProbe(cluster=None)
        fairness, margin, _ = probe._fairness({1: 10, 2: 54}, 60.0)
        assert fairness == pytest.approx(54.0 / 6.0)
        assert margin == pytest.approx(6.0)

    def test_saturated_node_counts_instead_of_inf(self):
        probe = RuntimeProbe(cluster=None)
        fairness, margin, saturated = probe._fairness({1: 60}, 60.0)
        assert saturated == 1
        assert margin == 0.0
        assert math.isnan(fairness)  # no finite f_i left

    def test_overfull_usage_is_clamped_to_capacity(self):
        # Chain-assigned storage is not admission-controlled, so W can
        # exceed W_tol; it must clamp rather than go negative-denominator.
        probe = RuntimeProbe(cluster=None)
        fairness, margin, saturated = probe._fairness({1: 75, 2: 30}, 60.0)
        assert saturated == 1
        assert margin == 0.0
        assert fairness == pytest.approx(1.0)

    def test_empty_usage_is_nan(self):
        probe = RuntimeProbe(cluster=None)
        fairness, margin, saturated = probe._fairness({}, 60.0)
        assert math.isnan(fairness) and math.isnan(margin)
        assert saturated == 0


class TestStakeTopShare:
    def test_top_k_share(self):
        state = FakeState([1, 2, 3, 4], tokens={1: 5, 2: 3, 3: 1, 4: 1})
        probe = RuntimeProbe(cluster=None)
        assert probe._stake_top_share(state) == pytest.approx(0.9)

    def test_zero_total_stake_is_nan(self):
        state = FakeState([1, 2], tokens={})
        probe = RuntimeProbe(cluster=None)
        assert math.isnan(probe._stake_top_share(state))


class TestRecentCoverage:
    def test_genesis_only_chain_has_no_coverage(self):
        state = FakeState([1, 2])
        chain = FakeChain([0.0], state=state)
        probe = RuntimeProbe(cluster=None)
        assert math.isnan(probe._recent_coverage(chain))

    def test_holders_are_storers_union_caches(self):
        state = FakeState(
            [1, 2],
            block_storing={1: [1], 2: []},
            caches={2: [2]},
        )
        chain = FakeChain([0.0, 20.0, 40.0], state=state)
        probe = RuntimeProbe(cluster=None)
        # Block 1 held by node 1 (storer), block 2 by node 2 (cache):
        # fractions [1/2, 1/2] → 0.5.
        assert probe._recent_coverage(chain) == pytest.approx(0.5)

    def test_fully_covered_chain(self):
        state = FakeState(
            [1, 2],
            block_storing={1: [1, 2], 2: [1]},
            caches={2: [2]},
        )
        chain = FakeChain([0.0, 20.0, 40.0], state=state)
        probe = RuntimeProbe(cluster=None)
        assert probe._recent_coverage(chain) == pytest.approx(1.0)


class TestTimeline:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Timeline(0.0)

    def test_unattached_ticks_are_noops(self):
        timeline = Timeline(10.0)
        assert not timeline.attached
        assert timeline.maybe_sample(100.0) is None
        assert timeline.samples == []

    def test_samples_align_to_the_grid_without_catchup_bursts(self):
        timeline = Timeline(10.0)
        timeline._probe = FakeProbe()
        assert timeline.maybe_sample(0.0) is not None
        assert timeline.maybe_sample(3.0) is None  # before the next slot
        assert timeline.maybe_sample(10.0) is not None
        # A long event gap produces ONE sample, snapped forward to the
        # grid — not one per missed slot.
        assert timeline.maybe_sample(47.0) is not None
        assert timeline.maybe_sample(49.0) is None
        assert timeline.maybe_sample(50.0) is not None
        assert [s["t"] for s in timeline.samples] == [0.0, 10.0, 47.0, 50.0]

    def test_last_sample(self):
        timeline = Timeline(10.0)
        assert timeline.last_sample() is None
        timeline._probe = FakeProbe()
        timeline.maybe_sample(5.0)
        assert timeline.last_sample()["t"] == 5.0


class TestTimelineRoundTrip:
    def test_write_then_read_preserves_header_and_samples(self, tmp_path):
        timeline = Timeline(10.0)
        timeline.samples = [
            {"t": 0.0, "height": 0, "fairness_max": math.nan},
            {"t": 10.0, "height": 1, "fairness_max": 0.5},
        ]
        path = timeline.write_jsonl(tmp_path / "timeline.jsonl")
        header, samples = read_timeline(path)
        assert header["schema"] == TIMELINE_SCHEMA
        assert header["interval"] == 10.0
        assert header["samples"] == 2
        # Strict JSON: NaN went out as null.
        assert samples[0]["fairness_max"] is None
        assert samples[1] == {"t": 10.0, "height": 1, "fairness_max": 0.5}
