"""Unit tests for the SQLite chain store."""

import math
import sqlite3
from dataclasses import replace

import pytest

from repro.core.config import PAPER_CONFIG
from repro.core.errors import FormatVersionError, PersistError, ValidationError
from repro.core.serialization import block_from_bytes, block_to_bytes
from repro.metrics.export import store_chain_record
from repro.lifecycle import ARCHIVE_NAME, BlockArchive
from repro.persist.chainstore import ChainStore
from repro.persist.journal import WRITE_BATCH
from repro.persist.resume import STORE_NAME
from repro.sim.runner import ExperimentSpec, run_experiment
from tests.helpers import stored_chain

pytestmark = pytest.mark.persist


@pytest.fixture(scope="module")
def finished_run():
    """One short real run whose chain exercises every store column."""
    config = replace(
        PAPER_CONFIG, simulation_minutes=12.0, data_items_per_minute=2.0
    )
    return run_experiment(ExperimentSpec(node_count=5, config=config, seed=11))


@pytest.fixture(scope="module")
def chain(finished_run):
    return finished_run.cluster.longest_chain_node().chain


@pytest.fixture
def store(tmp_path, finished_run, chain):
    with ChainStore(tmp_path / "chain.sqlite") as handle:
        for block in chain.blocks:
            handle.put_block(block)
        handle.put_accounts(finished_run.cluster.accounts)
        yield handle


class TestReads:
    def test_height_and_counts(self, store, chain):
        assert store.height() == chain.height
        assert store.block_count() == chain.height + 1
        assert store.metadata_count() == sum(
            len(block.metadata_items) for block in chain.blocks
        )
        assert store.metadata_count() > 0

    def test_tip_hash(self, store, chain):
        assert store.tip_hash() == chain.tip.current_hash

    def test_empty_store(self, tmp_path):
        with ChainStore(tmp_path / "empty.sqlite") as empty:
            assert empty.height() == -1
            assert empty.tip_hash() is None
            assert empty.block_by_index(0) is None
            assert empty.verify_integrity() == []

    def test_block_round_trip_by_index_and_hash(self, store, chain):
        """A block read back by index is the block put, and its row's hash
        column is the block's hash."""
        for block in chain.blocks:
            assert store.block_by_index(block.index, verify_hash=True) == block
        hashes = [row[0] for row in store._conn.execute("SELECT hash FROM blocks ORDER BY idx")]
        assert hashes == [block.current_hash for block in chain.blocks]

    def test_iter_blocks_in_chain_order(self, store, chain):
        assert list(store.iter_blocks(verify_hashes=True)) == list(chain.blocks)

    def test_block_timestamps_sorted(self, store, chain):
        timestamps = store.block_timestamps()
        assert timestamps == [block.timestamp for block in chain.blocks]
        assert timestamps == sorted(timestamps)

    def test_miner_distribution_excludes_genesis(self, store, chain):
        distribution = store.miner_distribution()
        assert sum(distribution.values()) == chain.height  # genesis excluded
        assert all(node >= 0 for node in distribution)

    def test_accounts_round_trip(self, store, finished_run):
        stored = store.accounts()
        for node_id, account in finished_run.cluster.accounts.items():
            address, public_key = stored[node_id]
            assert address == account.address
            assert public_key == account.public_key.hex()


class TestCache:
    def test_repeated_reads_hit_cache(self, store):
        store.block_by_index(1)
        misses = store.cache_misses
        store.block_by_index(1)
        store.block_by_index(1)
        assert store.cache_hits >= 2
        assert store.cache_misses == misses

    def test_cache_eviction_is_lru(self, tmp_path, chain):
        with ChainStore(tmp_path / "tiny.sqlite", cache_blocks=2) as tiny:
            for block in chain.blocks:
                tiny.put_block(block)
            tiny.block_by_index(0)  # faults block 0 back in, evicting the LRU
            hits = tiny.cache_hits
            tiny.block_by_index(0)
            assert tiny.cache_hits == hits + 1

    def test_cache_size_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ChainStore(tmp_path / "bad.sqlite", cache_blocks=0)


class TestReorgRePut:
    def test_reput_at_a_stored_height_replaces_the_row(self, store, chain):
        """A reorg re-puts a stored height with another block: the row is
        replaced, and ``metadata_count`` follows the new block's items."""
        before = store.metadata_count()
        old = chain.blocks[2]
        items = () if old.metadata_items else chain.blocks[3].metadata_items
        other = replace(old, metadata_items=items, current_hash="")  # hashed afresh
        assert len(items) != len(old.metadata_items)
        assert other.current_hash != old.current_hash
        store.put_block(other)
        assert store.block_count() == chain.height + 1
        assert store.tip_hash() == chain.tip.current_hash
        assert store.block_by_index(2) == other
        assert store.metadata_count() == (
            before - len(old.metadata_items) + len(other.metadata_items)
        )
        store.put_block(old)  # and back: the original row and count return
        assert store.block_by_index(2) == old
        assert store.metadata_count() == before


class _FailingInsert:
    """Stands in for the store's connection; the next block ``INSERT``
    raises once ``armed`` is set."""

    def __init__(self, connection):
        self._connection = connection
        self.armed = False

    def execute(self, sql, *parameters):
        if self.armed and sql.startswith("INSERT OR REPLACE INTO blocks"):
            self.armed = False
            raise sqlite3.OperationalError("disk I/O error (injected)")
        return self._connection.execute(sql, *parameters)

    def __getattr__(self, name):
        return getattr(self._connection, name)


class _FailingDelete:
    """Stands in for the store's connection; compaction's first range
    delete raises."""

    def __init__(self, connection):
        self._connection = connection

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc_info):
        return self._connection.__exit__(*exc_info)

    def execute(self, sql, *parameters):
        if sql.startswith("DELETE FROM blocks WHERE idx <"):
            raise sqlite3.OperationalError("disk I/O error (injected)")
        return self._connection.execute(sql, *parameters)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def _committed_indices(path):
    """Block indices another connection sees: what has been committed."""
    with sqlite3.connect(str(path)) as reader:
        rows = reader.execute("SELECT idx FROM blocks ORDER BY idx").fetchall()
    reader.close()
    return [row[0] for row in rows]


class TestGroupCommit:
    """Puts are staged and committed every ``WRITE_BATCH``; each put is
    one statement inside the open transaction."""

    @pytest.fixture(scope="class")
    def blocks(self, tmp_path_factory):
        _, source = stored_chain(
            tmp_path_factory.mktemp("source") / STORE_NAME, 80, item_every=2
        )
        with source:
            return list(source.iter_blocks())

    def test_another_connection_sees_puts_after_commit(self, tmp_path, blocks):
        path = tmp_path / STORE_NAME
        staged = blocks[:5]
        store = ChainStore(path)
        for block in staged:
            store.put_block(block)
        assert store.height() == 4  # this connection reads its staged rows
        assert _committed_indices(path) == []
        store.commit()
        assert _committed_indices(path) == [0, 1, 2, 3, 4]
        store.put_block(blocks[5])
        assert _committed_indices(path) == [0, 1, 2, 3, 4]
        store.close()
        assert _committed_indices(path) == [0, 1, 2, 3, 4, 5]

    def test_exit_commits(self, tmp_path, blocks):
        path = tmp_path / STORE_NAME
        with ChainStore(path) as store:
            for block in blocks[:3]:
                store.put_block(block)
        assert _committed_indices(path) == [0, 1, 2]

    def test_second_close_is_harmless(self, tmp_path, blocks):
        store = ChainStore(tmp_path / STORE_NAME)
        store.put_block(blocks[0])
        store.close()
        store.close()
        with store:
            pass
        assert _committed_indices(tmp_path / STORE_NAME) == [0]

    def test_failed_put_rolls_back_only_its_own_rows(self, tmp_path, blocks):
        path = tmp_path / STORE_NAME
        store = ChainStore(path)
        spy = _FailingInsert(store._conn)
        store._conn = spy
        for block in blocks[:6]:
            store.put_block(block)
        items, block_rows = store.metadata_count(), store.block_count()
        assert items > 0

        # A re-put of staged block 4 and a new block 6 fail in the one
        # INSERT each put is; the staged rows before them stay.
        for block in (blocks[4], blocks[6]):
            spy.armed = True
            with pytest.raises(sqlite3.OperationalError, match="injected"):
                store.put_block(block)
        assert store.block_count() == block_rows
        assert store.metadata_count() == items
        assert [store.block_by_index(i, verify_hash=True) for i in range(6)] == blocks[:6]
        assert store.block_by_index(6) is None
        store.put_block(blocks[6])  # the store is still usable
        store.close()
        assert _committed_indices(path) == list(range(7))
        with ChainStore(path) as reopened:
            assert reopened.verify_integrity() == []

    @pytest.mark.parametrize("puts", [1, WRITE_BATCH, WRITE_BATCH + 1, 70])
    def test_one_commit_per_write_batch(self, tmp_path, blocks, puts):
        statements = []
        store = ChainStore(tmp_path / STORE_NAME)
        store._conn.set_trace_callback(statements.append)
        for block in blocks[:puts]:
            store.put_block(block)
        store.close()
        assert statements.count("COMMIT") == math.ceil(puts / WRITE_BATCH)

    def test_compaction_commits_before_its_deletes(self, tmp_path):
        path = tmp_path / STORE_NAME
        chain, store = stored_chain(path, 70)  # 71 puts: 7 still staged
        archive = BlockArchive(tmp_path / ARCHIVE_NAME)
        up_to = chain.first_retained_index
        spy = _FailingDelete(store._conn)
        store._conn = spy
        with store, pytest.raises(sqlite3.OperationalError, match="injected"):
            store.compact(archive, up_to, chain.checkpoints)
        # The failed delete transaction took none of the staged puts with it.
        assert _committed_indices(path) == list(range(chain.height + 1))
        with ChainStore(path) as store:
            assert store.compact(archive, up_to, chain.checkpoints) == up_to
        assert _committed_indices(path) == list(range(up_to, chain.height + 1))


class TestIntegrity:
    def test_clean_store_verifies(self, store):
        assert store.verify_integrity() == []

    def _raw(self, store):
        store.close()
        return sqlite3.connect(str(store.path))

    def test_payload_tamper_detected(self, store):
        """The miner changed inside the stored bytes, re-encoded whole (so
        the CRC holds): the hash column catches it."""
        conn = self._raw(store)
        stored = block_from_bytes(
            conn.execute("SELECT payload FROM blocks WHERE idx = 1").fetchone()[0]
        )
        tampered = block_to_bytes(replace(stored, miner=stored.miner + 1))
        block_from_bytes(tampered)  # well-formed bytes, of another block
        conn.execute("UPDATE blocks SET payload = ? WHERE idx = 1", (tampered,))
        conn.commit()
        conn.close()
        with ChainStore(store.path) as reopened:
            problems = reopened.verify_integrity()
            with pytest.raises(ValidationError):
                reopened.block_by_index(1)
        assert any("block 1" in problem for problem in problems)

    def test_hash_column_tamper_detected(self, store):
        conn = self._raw(store)
        conn.execute("UPDATE blocks SET hash = 'deadbeef' WHERE idx = 2")
        conn.commit()
        conn.close()
        with ChainStore(store.path) as reopened:
            problems = reopened.verify_integrity()
        assert any("hash column" in problem for problem in problems)

    def test_missing_block_detected_as_gap(self, store):
        conn = self._raw(store)
        conn.execute("DELETE FROM blocks WHERE idx = 1")
        conn.commit()
        conn.close()
        with ChainStore(store.path) as reopened:
            problems = reopened.verify_integrity()
        assert any("gap" in problem for problem in problems)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with ChainStore(path) as handle:
            handle.set_meta("schema_version", "999")
        with pytest.raises(PersistError, match="schema"):
            ChainStore(path)

    def test_a_store_of_json_rows_is_refused_by_its_version(self, tmp_path):
        path = tmp_path / "old.sqlite"
        with ChainStore(path) as handle:
            handle.set_meta("schema_version", "1")
        with pytest.raises(FormatVersionError, match="schema v1, this build reads v3"):
            ChainStore(path)

    def test_a_store_with_item_tables_is_refused_by_its_version(self, tmp_path):
        """A v2 store, laid out as v2 wrote it (no ``items`` column, item
        and assignment tables), is refused by its header."""
        path = tmp_path / "v2.sqlite"
        with sqlite3.connect(str(path)) as conn:
            conn.executescript(
                "CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
                "INSERT INTO store_meta VALUES ('schema_version', '2');"
                "CREATE TABLE blocks (idx INTEGER PRIMARY KEY, hash TEXT NOT NULL UNIQUE,"
                " miner INTEGER NOT NULL, timestamp REAL NOT NULL, payload BLOB NOT NULL);"
                "CREATE TABLE metadata_items (data_id TEXT PRIMARY KEY);"
                "CREATE TABLE assignments (block_idx INTEGER NOT NULL);"
            )
        conn.close()
        with pytest.raises(FormatVersionError, match="schema v2, this build reads v3"):
            ChainStore(path)


class TestExportFromStore:
    def test_store_chain_record_matches_chain(self, store, chain):
        record = store_chain_record(store)
        assert record["chain_height"] == chain.height
        assert record["tip_hash"] == chain.tip.current_hash
        assert record["accounts"] == 5
        assert sum(record["blocks_mined"].values()) == chain.height
        assert record["mean_block_interval_s"] > 0


class TestQueryPlans:
    """A put is one statement, and compaction's range read and delete
    search the block index (the integer primary key), not a scan."""

    @staticmethod
    def _statements(store, action):
        executed = []
        store._conn.set_trace_callback(executed.append)
        try:
            action()
        finally:
            store._conn.set_trace_callback(None)
        return executed

    def test_put_block_and_compact_search_the_block_index(self, tmp_path):
        chain, store = stored_chain(tmp_path / STORE_NAME, 64, item_every=2)
        with store:
            store.commit()
            puts = self._statements(store, lambda: store.put_block(chain.tip))
            assert [sql.split(" (")[0] for sql in puts if not sql.startswith("BEGIN")] == [
                "INSERT OR REPLACE INTO blocks"
            ]
            archive = BlockArchive(tmp_path / ARCHIVE_NAME)
            up_to = chain.first_retained_index
            assert up_to > 0
            ranged = [
                sql
                for sql in self._statements(
                    store, lambda: store.compact(archive, up_to, chain.checkpoints)
                )
                if sql.startswith(("DELETE FROM blocks", "SELECT idx, hash, payload"))
            ]
            assert len(ranged) == 2
            for sql in ranged:
                plan = " / ".join(
                    row[-1] for row in store._conn.execute(f"EXPLAIN QUERY PLAN {sql}")
                )
                assert "SEARCH blocks USING INTEGER PRIMARY KEY" in plan, plan
