"""Property tests: kill-and-resume determinism, journal prefix recovery."""

import json
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PAPER_CONFIG
from repro.metrics.export import metrics_to_record
from repro.persist import PersistConfig, resume_run, run_persistent
from repro.persist.journal import REC_BLOCK, RunJournal, recover_journal
from repro.sim.runner import ExperimentSpec, run_experiment

pytestmark = pytest.mark.persist

FAST_PERSIST = PersistConfig(journal_every_seconds=20.0)

#: Uninterrupted reference records, cached per seed (runs are pure
#: functions of the spec, so the cache cannot go stale).
_REFERENCE: dict = {}


def small_spec(seed: int) -> ExperimentSpec:
    config = replace(
        PAPER_CONFIG, simulation_minutes=10.0, data_items_per_minute=2.0
    )
    return ExperimentSpec(node_count=5, config=config, seed=seed)


def record_text(metrics, seed: int) -> str:
    # NaN-stable comparison: json renders NaN identically on both sides.
    return json.dumps(metrics_to_record(metrics, seed=seed), sort_keys=True)


def reference_record(seed: int) -> tuple:
    if seed not in _REFERENCE:
        result = run_experiment(small_spec(seed))
        tip = result.cluster.longest_chain_node().chain.tip.current_hash
        _REFERENCE[seed] = (record_text(result.metrics, seed), tip)
    return _REFERENCE[seed]


class TestKillResumeDeterminism:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=3),
        kill_fraction=st.floats(min_value=0.15, max_value=0.9),
    )
    def test_resumed_run_matches_uninterrupted(
        self, tmp_path_factory, seed, kill_fraction
    ):
        spec = small_spec(seed)
        expected_record, expected_tip = reference_record(seed)
        directory = tmp_path_factory.mktemp("run")
        kill_at = kill_fraction * spec.duration_seconds
        paused = run_persistent(
            spec, directory, persist=FAST_PERSIST, stop_after_seconds=kill_at
        )
        assert not paused.completed
        resumed = resume_run(directory)
        assert resumed.completed
        assert record_text(resumed.metrics, seed) == expected_record
        tip = resumed.result.cluster.longest_chain_node().chain.tip.current_hash
        assert tip == expected_tip

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=3),
        first=st.floats(min_value=0.1, max_value=0.4),
        second=st.floats(min_value=0.1, max_value=0.4),
    )
    def test_double_interruption_still_deterministic(
        self, tmp_path_factory, seed, first, second
    ):
        spec = small_spec(seed)
        expected_record, expected_tip = reference_record(seed)
        directory = tmp_path_factory.mktemp("run")
        duration = spec.duration_seconds
        run_persistent(
            spec,
            directory,
            persist=FAST_PERSIST,
            stop_after_seconds=first * duration,
        )
        resume_run(directory, stop_after_seconds=second * duration)
        resumed = resume_run(directory)
        assert resumed.completed
        assert record_text(resumed.metrics, seed) == expected_record
        tip = resumed.result.cluster.longest_chain_node().chain.tip.current_hash
        assert tip == expected_tip


class TestJournalPrefixRecovery:
    @settings(max_examples=40, deadline=None)
    @given(
        payloads=st.lists(
            st.dictionaries(
                st.text(min_size=1, max_size=8),
                st.integers(min_value=-(10**6), max_value=10**6),
                max_size=4,
            ),
            min_size=1,
            max_size=12,
        ),
        data=st.data(),
    )
    def test_any_byte_truncation_is_recoverable(
        self, tmp_path_factory, payloads, data
    ):
        """A journal cut at *any* byte is never corrupt — only torn."""
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        with closing(RunJournal.open(path)) as journal:
            for index, payload in enumerate(payloads):
                journal.append(REC_BLOCK, float(index), payload)
        raw = path.read_bytes()
        offset = data.draw(st.integers(min_value=0, max_value=len(raw)))
        path.write_bytes(raw[:offset])

        recovery = recover_journal(path)
        assert not recovery.corrupt
        assert recovery.dropped_records == 0
        assert len(recovery.records) <= len(payloads)
        for index, record in enumerate(recovery.records):
            assert record.payload == payloads[index]
        # The recovered prefix plus the torn tail accounts for every byte.
        assert recovery.valid_bytes + recovery.torn_tail_bytes == offset
        # ... and a writer can always continue from the recovered prefix.
        with closing(RunJournal.open(path)) as journal:
            assert journal.next_seq == len(recovery.records)
