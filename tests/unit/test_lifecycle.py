"""Unit tests for the chain lifecycle subsystem: horizon math, checkpoint
records, in-memory pruning, anchored adoption, and the cold archive."""

import builtins
import dataclasses
import errno

import pytest

from repro.core.account import Account
from repro.core.block import Block
from repro.core.blockchain import Blockchain, BlockOutcome
from repro.core.config import LifecycleSpec, SystemConfig
from repro.core.errors import (
    CheckpointError,
    FormatVersionError,
    PersistError,
    PrunedBlockError,
    ValidationError,
)
from repro.core.pos import compute_hit, compute_pos_hash, mining_delay
from repro.core.serialization import block_to_bytes
from repro.lifecycle import (
    ARCHIVE_NAME,
    BlockArchive,
    CheckpointRecord,
    hot_bound_blocks,
    lifecycle_enabled,
    retention_horizon,
)
from repro.lifecycle import archive as archive_module
from repro.lifecycle.archive import LEGACY_ARCHIVE_NAME
from repro.lifecycle.framing import _frame
from repro.lifecycle.spec import checkpoint_lag, last_checkpoint_for
from tests.helpers import ARCHIVE_HEADER, archive_record, archive_record_ends

pytestmark = pytest.mark.lifecycle

NODES = 3
SEED = 55


def make_world(interval=4, lag=0, retain=8, lifecycle=True):
    config = SystemConfig(
        expected_block_interval=10.0,
        checkpoint_interval=interval,
        checkpoint_lag=lag,
        lifecycle=LifecycleSpec(retain_blocks=retain) if lifecycle else None,
    )
    accounts = {i: Account.for_node(SEED, i) for i in range(NODES)}
    address_of = {i: a.address for i, a in accounts.items()}
    chain = Blockchain(list(range(NODES)), config, address_of)
    return config, accounts, chain


def mine(chain, accounts, miner):
    parent = chain.tip
    address = accounts[miner].address
    state = chain.state
    hit = compute_hit(parent.pos_hash, address, chain.config.hit_modulus)
    amendment = state.amendment(parent.timestamp)
    delay = mining_delay(
        hit,
        state.tokens(miner),
        state.stored_items(miner, parent.timestamp),
        amendment,
    )
    return Block(
        index=parent.index + 1,
        timestamp=parent.timestamp + delay,
        previous_hash=parent.current_hash,
        pos_hash=compute_pos_hash(parent.pos_hash, address),
        miner=miner,
        miner_address=address,
        hit=hit,
        target_b=amendment,
        storing_nodes=(miner,),
        previous_storing_nodes=tuple(state.block_storing.get(parent.index, ())),
    )


def grow(chain, accounts, count):
    for step in range(count):
        chain.append_block(mine(chain, accounts, step % NODES))


class TestSpecMath:
    def test_enabled_requires_spec(self):
        config, _, _ = make_world(lifecycle=False)
        assert not lifecycle_enabled(config)
        config, _, _ = make_world()
        assert lifecycle_enabled(config)

    def test_spec_requires_checkpoint_schedule(self):
        with pytest.raises(ValueError):
            SystemConfig(
                checkpoint_interval=0, lifecycle=LifecycleSpec(retain_blocks=4)
            )
        with pytest.raises(ValueError):
            LifecycleSpec(retain_blocks=0)

    def test_last_checkpoint_matches_live_chain(self):
        config, accounts, chain = make_world(interval=4, lag=3)
        for _ in range(20):
            chain.append_block(mine(chain, accounts, chain.height % NODES))
            assert last_checkpoint_for(config, chain.height) == chain.last_checkpoint()

    def test_horizon_is_checkpoint_aligned_and_clamped(self):
        config, _, _ = make_world(interval=4, lag=0, retain=8)
        assert retention_horizon(config, 5) == 0
        for height in range(0, 60):
            horizon = retention_horizon(config, height)
            assert horizon % 4 == 0
            assert horizon <= last_checkpoint_for(config, height)
            if horizon:
                assert height - horizon >= 8  # retention window honoured
        assert retention_horizon(config, 20) == 12

    def test_horizon_zero_without_lifecycle(self):
        config, _, _ = make_world(lifecycle=False)
        assert retention_horizon(config, 100) == 0
        assert hot_bound_blocks(config) is None

    def test_hot_bound_formula(self):
        config, _, _ = make_world(interval=4, lag=3, retain=8)
        assert hot_bound_blocks(config) == max(8, 3) + 4 + 1
        config, _, _ = make_world(interval=5, lag=None, retain=2)
        assert checkpoint_lag(config) == 10
        assert hot_bound_blocks(config) == 10 + 5 + 1


class TestCheckpointRecord:
    def _pinned(self):
        _, accounts, chain = make_world()
        grow(chain, accounts, 12)
        chain.prune_to(4)
        return chain.checkpoints[4]

    def test_pin_requires_at_block_state(self):
        _, accounts, chain = make_world()
        grow(chain, accounts, 6)
        with pytest.raises(ValueError):
            CheckpointRecord.pin(chain.block_at(4), chain.state)

    def test_round_trip_and_digest(self):
        record = self._pinned()
        clone = CheckpointRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.digest() == record.digest()

    def test_tampered_payload_rejected(self):
        record = self._pinned()
        payload = record.to_dict()
        payload["ledger_digest"] = "00" * 32
        with pytest.raises(ValueError):
            CheckpointRecord.from_dict(payload)


class TestPruning:
    def test_prune_is_digest_neutral(self):
        _, accounts, chain = make_world(interval=4, lag=0, retain=8)
        grow(chain, accounts, 20)
        digest = chain.chain_digest()
        ledger = chain.state.ledger_digest()
        dropped = chain.maybe_prune()
        assert dropped == 12
        assert chain.first_retained_index == 12
        assert chain.chain_digest() == digest
        assert chain.state.ledger_digest() == ledger
        assert len(chain) == 21  # logical length includes pruned bodies
        assert chain.retained_blocks == 9
        assert 12 in chain.checkpoints

    def test_pruned_body_access(self):
        _, accounts, chain = make_world(interval=4, lag=0, retain=4)
        grow(chain, accounts, 16)
        chain.maybe_prune()
        floor = chain.first_retained_index
        assert floor > 0
        assert not chain.has_block(floor - 1)
        assert chain.has_block(floor)
        with pytest.raises(PrunedBlockError):
            chain.block_at(floor - 1)

    def test_prune_refuses_non_checkpoint_horizon(self):
        _, accounts, chain = make_world(interval=4, lag=0, retain=4)
        grow(chain, accounts, 16)
        with pytest.raises(ValueError):
            chain.prune_to(3)
        with pytest.raises(ValueError):
            chain.prune_to(chain.last_checkpoint() + 4)

    def test_incremental_prunes_share_the_anchor(self):
        _, accounts, chain = make_world(interval=4, lag=0, retain=4)
        grow(chain, accounts, 10)
        digest_mid = chain.chain_digest()
        chain.maybe_prune()
        assert chain.chain_digest() == digest_mid
        grow(chain, accounts, 10)
        chain.maybe_prune()
        assert chain.first_retained_index == 16
        # Every pruned-to horizon keeps its pinned record.
        assert sorted(chain.checkpoints) == [4, 16] or 16 in chain.checkpoints

    def test_stale_block_below_floor(self):
        _, accounts, chain = make_world(interval=4, lag=0, retain=4)
        grow(chain, accounts, 16)
        old = chain.block_at(5)
        chain.maybe_prune()
        forged = dataclasses.replace(old, timestamp=old.timestamp + 1.0)
        assert chain.consider_block(forged) is BlockOutcome.STALE


class TestAnchoredAdoption:
    def _twins(self, blocks=20, **kw):
        _, accounts, ours = make_world(**kw)
        _, _, theirs = make_world(**kw)
        for step in range(blocks):
            block = mine(ours, accounts, step % NODES)
            ours.append_block(block)
            theirs.append_block(block)
        return accounts, ours, theirs

    def test_suffix_adoption_on_pruned_chain(self):
        accounts, ours, theirs = self._twins(interval=4, lag=0, retain=4)
        ours.maybe_prune()
        grow(theirs, accounts, 2)  # strictly longer, same prefix
        suffix = theirs.blocks[ours.first_retained_index :]
        assert suffix[0].index == ours.first_retained_index
        assert ours.consider_chain(suffix)
        assert ours.chain_digest() == theirs.chain_digest()

    def test_candidate_below_floor_is_trimmed(self):
        accounts, ours, theirs = self._twins(interval=4, lag=0, retain=4)
        ours.maybe_prune()
        grow(theirs, accounts, 1)
        assert ours.consider_chain(list(theirs.blocks))
        assert ours.chain_digest() == theirs.chain_digest()

    def test_checkpoint_rewrite_refused(self):
        accounts, ours, theirs = self._twins(interval=4, lag=0, retain=4)
        ours.maybe_prune()
        floor = ours.first_retained_index
        # Forge an alternative history that rewrites the anchor block
        # itself and outgrows our tip (a rotated miner schedule diverges
        # from block 1 onward).
        _, _, forged = make_world(interval=4, lag=0, retain=4)
        for step in range(len(ours) + 2):
            forged.append_block(mine(forged, accounts, (step + 1) % NODES))
        assert (
            forged.block_at(floor).current_hash
            != ours.block_at(floor).current_hash
        )
        candidate = forged.blocks[floor:]
        with pytest.raises(CheckpointError):
            ours.consider_chain(candidate)

    def test_legacy_chains_still_require_genesis(self):
        accounts, ours, theirs = self._twins(blocks=6, lifecycle=False, interval=4)
        grow(theirs, accounts, 1)
        with pytest.raises(ValidationError):
            ours.consider_chain(theirs.blocks[3:])


class TestArchive:
    def _grown(self, count=12):
        _, accounts, chain = make_world(interval=4, lag=0, retain=4)
        grow(chain, accounts, count)
        return chain

    def test_append_fetch_round_trip(self, tmp_path):
        chain = self._grown()
        archive = BlockArchive(tmp_path / ARCHIVE_NAME)
        for block in chain.blocks[:9]:
            archive.append(block)
        assert archive.archived_below == 9
        assert next(archive.fetch_range(4, 5)).current_hash == chain.block_at(4).current_hash
        fetched = list(archive.fetch_range(2, 6))
        assert [b.index for b in fetched] == [2, 3, 4, 5]
        assert archive.verify_integrity() == []

    def test_append_enforces_contiguity(self, tmp_path):
        chain = self._grown()
        archive = BlockArchive(tmp_path / ARCHIVE_NAME)
        archive.append(chain.block_at(0))
        with pytest.raises(PersistError):
            archive.append(chain.block_at(2))

    def test_reopen_preserves_contents(self, tmp_path):
        chain = self._grown()
        path = tmp_path / ARCHIVE_NAME
        archive = BlockArchive(path)
        chain.prune_to(4)
        record = chain.checkpoints[4]
        for block in self._grown().blocks[:5]:
            archive.append(block, checkpoint=record if block.index == 4 else None)
        reopened = BlockArchive(path)
        assert reopened.archived_below == 5
        assert reopened.checkpoints()[4] == record
        assert reopened.verify_integrity() == []

    def test_torn_tail_is_truncated(self, tmp_path):
        chain = self._grown()
        path = tmp_path / ARCHIVE_NAME
        archive = BlockArchive(path)
        for block in chain.blocks[:4]:
            archive.append(block)
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # simulate a torn final write
        reopened = BlockArchive(path)
        assert reopened.archived_below == 3
        assert reopened.torn_tail_bytes > 0
        assert reopened.verify_integrity() == []
        # And compaction can resume from the truncated floor.
        reopened.append(chain.block_at(3))
        assert reopened.archived_below == 4

    def test_corrupt_body_detected(self, tmp_path):
        chain = self._grown()
        path = tmp_path / ARCHIVE_NAME
        archive = BlockArchive(path)
        for block in chain.blocks[:4]:
            archive.append(block)
        data = bytearray(path.read_bytes())
        data[archive_record_ends(bytes(data))[0] + 60] ^= 0x01  # in block 1's bytes
        path.write_bytes(bytes(data))
        with pytest.raises(PersistError):
            BlockArchive(path)


    def test_an_archive_of_the_old_format_is_refused_never_truncated(self, tmp_path):
        chain = self._grown()
        path = tmp_path / ARCHIVE_NAME
        old = _frame({"v": 1, "idx": 0, "hash": chain.block_at(0).current_hash,
                      "block": {"index": 0}})
        path.write_bytes(old)  # one record: where a torn write would sit
        with pytest.raises(FormatVersionError, match="has format v1; this build reads v3"):
            BlockArchive(path)
        assert path.read_bytes() == old

    def test_a_json_lines_archive_is_refused_by_name_and_beside_a_new_one(self, tmp_path):
        chain = self._grown()
        block = chain.block_at(0)
        legacy = tmp_path / LEGACY_ARCHIVE_NAME
        old = _frame(
            {"v": 2, "idx": 0, "hash": block.current_hash,
             "block": "AA=="}
        )
        legacy.write_bytes(old)
        for path in (legacy, tmp_path / ARCHIVE_NAME):
            with pytest.raises(FormatVersionError, match="has format v2; this build reads v3"):
                BlockArchive(path)
        assert legacy.read_bytes() == old
        assert not (tmp_path / ARCHIVE_NAME).exists()

    def test_an_archive_of_another_binary_version_is_refused(self, tmp_path):
        path = tmp_path / ARCHIVE_NAME
        other = ARCHIVE_HEADER[:-4] + (4).to_bytes(4, "big")
        path.write_bytes(other)
        with pytest.raises(FormatVersionError, match="has format v4; this build reads v3"):
            BlockArchive(path)
        path.write_bytes(b"NOTANARCHIVE")
        with pytest.raises(PersistError, match="not a block archive"):
            BlockArchive(path)
        assert path.read_bytes() == b"NOTANARCHIVE"

    def test_record_without_a_block_is_corrupt(self, tmp_path):
        chain = self._grown()
        path = tmp_path / ARCHIVE_NAME
        BlockArchive(path).append(chain.block_at(0))
        hollow = archive_record(chain.block_at(0).current_hash, b"")
        data = path.read_bytes()
        path.write_bytes(ARCHIVE_HEADER + hollow + data[len(ARCHIVE_HEADER) :])
        with pytest.raises(PersistError, match="carries no block"):
            BlockArchive(path)

    def test_verify_reports_a_rehashed_body_and_walks_on(self, tmp_path):
        """Block bytes altered *and* re-framed pass both CRCs (the record's
        and the bytes' own); the content hash catches it, as one problem,
        and the walk continues."""
        chain = self._grown()
        path = tmp_path / ARCHIVE_NAME
        archive = BlockArchive(path)
        archive.append_many((block, None) for block in chain.blocks[:4])
        data = path.read_bytes()
        start, end = archive_record_ends(data)[:2]
        stored = chain.block_at(1)
        later = dataclasses.replace(stored, timestamp=stored.timestamp + 1.0)
        record = archive_record(stored.current_hash, block_to_bytes(later))
        path.write_bytes(data[:start] + record + data[end:])
        problems = BlockArchive(path).verify_integrity()
        assert len(problems) == 1 and "block 1 unreadable" in problems[0]
        with pytest.raises(ValidationError):
            next(BlockArchive(path).fetch_range(1, 2))

    def test_verify_reports_a_failed_read_and_walks_on(self, tmp_path, monkeypatch):
        """A disk error while reading a record is one problem; the walk
        seeks to the next record and goes on, as it does after reading a
        checkpoint pinned in another block's record."""
        chain = self._grown()
        pinned = chain.block_at(2)
        checkpoint = CheckpointRecord(
            index=2,
            block_hash=pinned.current_hash,
            ledger_digest="ab" * 32,
            stake_summary=((0, "1.5"),),
            timestamp=pinned.timestamp,
        )
        archive = BlockArchive(tmp_path / ARCHIVE_NAME)
        archive.append_many(
            (block, checkpoint if block.index == 3 else None) for block in chain.blocks[:5]
        )
        assert archive.verify_integrity() == []

        class FirstReadFails:
            def __init__(self, handle):
                self._handle, self._failed = handle, False

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def seek(self, offset):
                return self._handle.seek(offset)

            def read(self, size=-1):
                if not self._failed:
                    self._failed = True
                    self._handle.read(size // 2)  # part of the record came in
                    raise OSError(errno.EIO, "Input/output error")
                return self._handle.read(size)

        monkeypatch.setattr(
            archive_module,
            "open",
            lambda path, mode: FirstReadFails(builtins.open(path, mode)),
            raising=False,
        )
        problems = archive.verify_integrity()
        assert len(problems) == 1, problems
        assert problems[0].startswith("block 0 unreadable") and "Input/output" in problems[0]


class TestStorageSlots:
    def test_pruned_bodies_keep_their_slots(self):
        from repro.core.storage import NodeStorage

        _, accounts, chain = make_world(interval=4, lag=0, retain=4)
        grow(chain, accounts, 4)
        storage = NodeStorage(capacity=10, recent_cache_capacity=0)
        for index in range(1, 5):
            storage.store_block(chain.block_at(index))
        before = storage.used_slots()
        dropped = storage.prune_block_bodies(4)
        assert dropped == 3
        assert storage.used_slots() == before
        assert storage.pruned_block_slots == 3
        assert storage.get_block(2) is None
        assert storage.get_block(4) is not None
