"""Unit tests for typed admission control (repro.core.admission)."""

import dataclasses

import pytest

from repro.core.account import Account
from repro.core.admission import (
    BAD_HASH,
    BAD_INDEX,
    BAD_MINER,
    BAD_POS,
    BAD_PRODUCER,
    BAD_SIGNATURE,
    CHECKPOINT_REWRITE,
    EQUIVOCATION,
    FLOOD,
    INVALID,
    REASON_WEIGHTS,
    AdmissionControl,
    EquivocationTracker,
    RateLimiter,
    block_admissible,
    classify_rejection,
    metadata_admissible,
)
from repro.core.block import Block
from repro.core.errors import (
    ChainLinkError,
    CheckpointError,
    ConsensusError,
    ValidationError,
)
from repro.core.metadata import create_metadata


@pytest.fixture
def accounts():
    return {i: Account.for_node(3, i) for i in range(4)}


@pytest.fixture
def address_of(accounts):
    return {i: a.address for i, a in accounts.items()}


def _block(accounts, miner=1, index=5, **overrides):
    fields = dict(
        index=index,
        timestamp=100.0,
        previous_hash="aa" * 32,
        pos_hash="bb" * 32,
        miner=miner,
        miner_address=accounts[miner].address,
        hit=7,
        target_b=1.0,
    )
    fields.update(overrides)
    return Block(**fields)


class TestClassifyRejection:
    def test_typed_errors_map_to_stable_reasons(self):
        assert classify_rejection(CheckpointError("x")) == CHECKPOINT_REWRITE
        assert classify_rejection(ChainLinkError("x")) == "bad_linkage"
        assert classify_rejection(ConsensusError("x")) == BAD_POS
        assert classify_rejection(ValidationError("x")) == INVALID

    def test_every_reason_has_a_weight(self):
        for error in (
            CheckpointError("x"),
            ChainLinkError("x"),
            ConsensusError("x"),
            ValidationError("x"),
        ):
            assert classify_rejection(error) in REASON_WEIGHTS


class TestBlockAdmissible:
    def test_honest_block_passes(self, accounts, address_of):
        assert block_admissible(_block(accounts), address_of) is None

    def test_genesis_index_rejected(self, accounts, address_of):
        block = _block(accounts, index=0, miner=1)
        assert block_admissible(block, address_of) == BAD_INDEX

    def test_unknown_miner_rejected(self, accounts, address_of):
        block = _block(accounts)
        block = dataclasses.replace(block, miner=99, current_hash="")
        assert block_admissible(block, address_of) == BAD_MINER

    def test_forged_miner_address_rejected(self, accounts, address_of):
        block = _block(accounts, miner=1)
        forged = dataclasses.replace(
            block, miner_address=accounts[2].address, current_hash=""
        )
        assert block_admissible(forged, address_of) == BAD_MINER

    def test_garbage_content_hash_rejected(self, accounts, address_of):
        block = dataclasses.replace(_block(accounts), current_hash="00" * 32)
        assert block_admissible(block, address_of) == BAD_HASH

    def test_tampered_copy_of_an_admitted_block_rejected(self, accounts, address_of):
        # The admitted object's hash is memoised; a copy with one field
        # changed under the old hash must not inherit that verdict.
        honest = _block(accounts)
        assert block_admissible(honest, address_of) is None
        forged = dataclasses.replace(honest, hit=honest.hit + 1)
        assert forged.current_hash == honest.current_hash
        assert block_admissible(forged, address_of) == BAD_HASH
        assert block_admissible(honest, address_of) is None


class TestMetadataAdmissible:
    def test_honest_item_passes(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        assert metadata_admissible(item, address_of) is None
        assert (
            metadata_admissible(item, address_of, verify_signature=True) is None
        )

    def test_forged_producer_address_rejected(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        forged = dataclasses.replace(item, producer_address="f0" * 20)
        assert metadata_admissible(forged, address_of) == BAD_PRODUCER

    def test_tampered_field_breaks_signature(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        tampered = dataclasses.replace(item, data_type="Forged/Tampered")
        # Without signature checking the tamper is invisible...
        assert metadata_admissible(tampered, address_of) is None
        # ...with it, the producer's ECDSA signature no longer verifies.
        assert (
            metadata_admissible(tampered, address_of, verify_signature=True)
            == BAD_SIGNATURE
        )

    def test_signature_cache_is_filled_and_reused(self, accounts, address_of):
        item = create_metadata(accounts[2], 2, 0, 10.0)
        cache = {}
        assert (
            metadata_admissible(
                item, address_of, verify_signature=True, signature_cache=cache
            )
            is None
        )
        key = (item.signing_payload(), item.signature_hex)
        assert cache[key] is True
        # Poison the cache: the memoised answer is trusted over re-verifying.
        cache[key] = False
        assert (
            metadata_admissible(
                item, address_of, verify_signature=True, signature_cache=cache
            )
            == BAD_SIGNATURE
        )


class TestEquivocationTracker:
    def test_two_distinct_blocks_same_height_same_miner(self, accounts):
        tracker = EquivocationTracker()
        first = _block(accounts, index=5)
        twin = dataclasses.replace(
            first, timestamp=first.timestamp + 1.0, current_hash=""
        )
        assert tracker.observe(first, tip_index=5) is False
        assert tracker.observe(twin, tip_index=5) is True

    def test_duplicate_announce_is_not_equivocation(self, accounts):
        tracker = EquivocationTracker()
        block = _block(accounts, index=5)
        assert tracker.observe(block, tip_index=5) is False
        assert tracker.observe(block, tip_index=5) is False

    def test_different_miners_do_not_equivocate(self, accounts):
        tracker = EquivocationTracker()
        assert tracker.observe(_block(accounts, miner=1), tip_index=5) is False
        assert tracker.observe(_block(accounts, miner=2), tip_index=5) is False

    def test_stale_heights_outside_window_ignored(self, accounts):
        # A crash-restarted node re-mining low heights must not be flagged.
        tracker = EquivocationTracker(window=4)
        old = _block(accounts, index=2)
        twin = dataclasses.replace(old, timestamp=999.0, current_hash="")
        assert tracker.observe(old, tip_index=10) is False
        assert tracker.observe(twin, tip_index=10) is False

    def test_seen_map_is_pruned_as_tip_advances(self, accounts):
        tracker = EquivocationTracker(window=4)
        tracker.observe(_block(accounts, index=2), tip_index=4)
        assert (2, 1) in tracker.seen
        tracker.observe(_block(accounts, index=20), tip_index=20)
        assert (2, 1) not in tracker.seen


class TestRateLimiter:
    def test_allows_up_to_limit_within_window(self):
        limiter = RateLimiter(window=60.0, limit=3)
        assert [limiter.allow(7, t) for t in (0.0, 1.0, 2.0, 3.0)] == [
            True,
            True,
            True,
            False,
        ]

    def test_budget_refills_as_window_slides(self):
        limiter = RateLimiter(window=60.0, limit=2)
        assert limiter.allow(7, 0.0)
        assert limiter.allow(7, 10.0)
        assert not limiter.allow(7, 50.0)
        assert limiter.allow(7, 61.0)  # the t=0 event aged out

    def test_budgets_are_per_key(self):
        limiter = RateLimiter(window=60.0, limit=1)
        assert limiter.allow(1, 0.0)
        assert limiter.allow(2, 0.0)
        assert not limiter.allow(1, 1.0)


class TestAdmissionControl:
    def test_rejections_counted_by_reason(self):
        control = AdmissionControl()
        control.reject(3, BAD_HASH)
        control.reject(3, BAD_HASH)
        control.reject(4, FLOOD)
        assert control.rejections == {BAD_HASH: 2, FLOOD: 1}
        assert control.total_rejections == 3

    def test_scores_accumulate_to_quarantine(self):
        control = AdmissionControl(quarantine_threshold=8.0)
        assert control.reject(3, BAD_HASH) is False  # score 4
        assert control.reject(3, BAD_POS) is True  # score 8 -> quarantined
        assert control.is_quarantined(3)
        # Already quarantined: further rejections do not re-announce.
        assert control.reject(3, BAD_HASH) is False

    def test_equivocation_quarantines_immediately(self):
        control = AdmissionControl(quarantine_threshold=8.0)
        assert control.reject(5, EQUIVOCATION) is True

    def test_floods_need_a_sustained_storm(self):
        control = AdmissionControl(quarantine_threshold=8.0)
        flags = [control.reject(6, FLOOD) for _ in range(8)]
        assert flags == [False] * 7 + [True]

    def test_unattributed_rejection_charges_nobody(self):
        control = AdmissionControl()
        assert control.reject(None, BAD_POS) is False
        assert control.reject(-1, BAD_POS) is False
        assert control.rejections == {BAD_POS: 2}
        assert control.scores == {}
        assert control.quarantined == set()

    def test_permitted_filters_quarantined_peers(self):
        control = AdmissionControl()
        control.reject(2, EQUIVOCATION)
        assert control.permitted([1, 2, 3]) == [1, 3]

    def test_snapshot_is_json_ready(self):
        control = AdmissionControl()
        control.reject(2, EQUIVOCATION)
        control.reject(9, FLOOD)
        snapshot = control.snapshot()
        assert snapshot == {
            "rejections": {EQUIVOCATION: 1, FLOOD: 1},
            "total_rejections": 2,
            "scores": {"2": 10.0, "9": 1.0},
            "quarantined": [2],
        }
