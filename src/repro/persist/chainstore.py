"""SQLite-backed chain store with an in-memory LRU cache.

The store is the *readable* half of the persistence subsystem (the
journal is the durable half): one row per block and one per node
account.  The paper's metadata query (§III-B) is answered from the chain
itself (:meth:`repro.core.blockchain.Blockchain.search_metadata`), so the
store keeps no item or assignment tables.

A block row holds the block's stored bytes
(:func:`repro.core.serialization.block_to_bytes`, a BLOB led by the
block's hash preimage) beside extracted columns (hash, miner, timestamp
and its item count).  A read decodes the bytes once — refusing any that
are not the canonical encoding of the block they decode to — and, when
asked to verify, checks that they hash to the row's hash column;
compaction checks each row by hashing what it read and hands the same
bytes to the cold archive without decoding them.
``verify_integrity`` re-walks the whole store checking payload hashes,
column consistency, and parent linkage; ``repro inspect`` exits non-zero
when it reports problems.

Reads of hot blocks go through a small LRU cache so a resumed run's
replay loop and the export paths stay off the disk.

Writes are group-committed.  ``put_block`` is one ``INSERT OR REPLACE``
into the open transaction (a put that fails undoes only its own
statement), and the store commits every
:data:`~repro.persist.journal.WRITE_BATCH` puts — the journal's fsync
batch — as well as on :meth:`ChainStore.commit`, before compaction's
deletes, and on close.  Staged rows are visible to this connection's
reads at once, and to other connections after the commit.  The journal is
written first, so a crash loses at most the staged puts, which resume
re-puts from the journal.
"""

from __future__ import annotations

import sqlite3
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.account import Account
from repro.core.block import Block
from repro.core.errors import FormatVersionError, PersistError, ValidationError
from repro.core.serialization import block_from_bytes, block_to_bytes, verify_block_bytes
from repro.obs import runtime as _obs
from repro.persist.journal import WRITE_BATCH

PathLike = Union[str, Path]

#: Bumped on breaking changes to the table layout.  v2: a block row's
#: payload is the block's stored bytes, not its JSON.  v3: a block row
#: counts its items, and the item and assignment tables are gone.
STORE_SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blocks (
    idx       INTEGER PRIMARY KEY,
    hash      TEXT    NOT NULL UNIQUE,
    miner     INTEGER NOT NULL,
    timestamp REAL    NOT NULL,
    items     INTEGER NOT NULL,
    payload   BLOB    NOT NULL
);
CREATE TABLE IF NOT EXISTS accounts (
    node_id    INTEGER PRIMARY KEY,
    address    TEXT    NOT NULL,
    public_key TEXT    NOT NULL
);
"""


def _stored_int(value: Any, what: str) -> int:
    """An integer column; a damaged file can hand back any other type."""
    if not isinstance(value, int):
        raise PersistError(f"chain store holds a non-integer {what}: {value!r:.40}")
    return value


class ChainStore:
    """Durable store for one run's chain."""

    def __init__(self, path: PathLike, cache_blocks: int = 256):
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._cache: "OrderedDict[int, Block]" = OrderedDict()
        self._cache_blocks = cache_blocks
        self.cache_hits = 0
        self.cache_misses = 0
        #: Puts staged in the open transaction since the last commit.
        self._staged = 0
        self._closed = False
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            existing = self.get_meta("schema_version")
            if existing is None:
                self.set_meta("schema_version", str(STORE_SCHEMA_VERSION))
            elif existing != str(STORE_SCHEMA_VERSION):
                raise FormatVersionError(
                    f"chain store {self.path} has schema v{existing}, "
                    f"this build reads v{STORE_SCHEMA_VERSION}"
                )
        except (sqlite3.DatabaseError, UnicodeDecodeError) as error:
            # A damaged file can garble even the text of sqlite's error.
            self._conn.close()
            raise PersistError(f"chain store {self.path} unreadable: {error}") from error
        except PersistError:
            self._conn.close()
            raise

    # -- meta ------------------------------------------------------------------------

    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def set_meta(self, key: str, value: str) -> None:
        # Commit staged puts first, so a failure here rolls back only this.
        self.commit()
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
                (key, value),
            )

    def pruned_below(self) -> int:
        """First block index still held in the hot tables (0 = never compacted)."""
        value = self.get_meta("pruned_below")
        try:
            return 0 if value is None else int(value)
        except ValueError as error:
            raise PersistError(f"chain store {self.path} has a damaged floor") from error

    # -- writes ----------------------------------------------------------------------

    def put_block(self, block: Block) -> None:
        """Stage (or replace, after a reorg) one block."""
        if _obs.is_enabled():
            start = time.perf_counter()
            with _obs.span("persist.put_block", "persist", index=block.index):
                self._put_block(block)
            _obs.add("persist.blocks_stored")
            _obs.observe("persist.put_seconds", time.perf_counter() - start)
        else:
            self._put_block(block)

    def _put_block(self, block: Block) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO blocks "
            "(idx, hash, miner, timestamp, items, payload) VALUES (?, ?, ?, ?, ?, ?)",
            (block.index, block.current_hash, block.miner, block.timestamp,
             len(block.metadata_items), block_to_bytes(block)),
        )
        self._cache_put(block)
        self._staged += 1
        if self._staged >= WRITE_BATCH:
            self.commit()

    def commit(self) -> None:
        """Commit every staged put (a no-op when nothing is staged)."""
        self._conn.commit()
        self._staged = 0

    def put_accounts(self, accounts: Dict[int, Account]) -> None:
        self.commit()
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO accounts (node_id, address, public_key) "
                "VALUES (?, ?, ?)",
                [
                    (node_id, account.address, account.public_key.hex())
                    for node_id, account in accounts.items()
                ],
            )

    # -- LRU cache -------------------------------------------------------------------

    def _cache_put(self, block: Block) -> None:
        self._cache[block.index] = block
        self._cache.move_to_end(block.index)
        while len(self._cache) > self._cache_blocks:
            self._cache.popitem(last=False)

    def _cache_get(self, index: int) -> Optional[Block]:
        block = self._cache.get(index)
        if block is not None:
            self._cache.move_to_end(index)
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        return block

    # -- reads -----------------------------------------------------------------------

    def height(self) -> int:
        """Highest stored block index (-1 when empty)."""
        row = self._conn.execute("SELECT MAX(idx) FROM blocks").fetchone()
        return -1 if row[0] is None else _stored_int(row[0], "block index")

    def block_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM blocks").fetchone()[0])

    def metadata_count(self) -> int:
        return int(
            self._conn.execute("SELECT SUM(items) FROM blocks").fetchone()[0] or 0
        )

    def tip_hash(self) -> Optional[str]:
        row = self._conn.execute(
            "SELECT hash FROM blocks ORDER BY idx DESC LIMIT 1"
        ).fetchone()
        return None if row is None else str(row[0])

    def block_by_index(self, index: int, verify_hash: bool = True) -> Optional[Block]:
        """The block at ``index`` (None if absent); ``verify_hash`` checks
        its bytes against the row's hash column."""
        cached = self._cache_get(index)
        if cached is not None:
            return cached
        row = self._conn.execute(
            "SELECT hash, payload FROM blocks WHERE idx = ?", (index,)
        ).fetchone()
        if row is None:
            return None
        block = block_from_bytes(row[1], row[0] if verify_hash else None)
        self._cache_put(block)
        return block

    def iter_blocks(self, verify_hashes: bool = False) -> Iterator[Block]:
        """All blocks in chain order (bypasses the cache)."""
        for block_hash, payload in self._conn.execute(
            "SELECT hash, payload FROM blocks ORDER BY idx"
        ):
            yield block_from_bytes(payload, block_hash if verify_hashes else None)

    def block_timestamps(self) -> List[float]:
        return [
            float(row[0])
            for row in self._conn.execute(
                "SELECT timestamp FROM blocks ORDER BY idx"
            )
        ]

    def miner_distribution(self) -> Dict[int, int]:
        """Blocks mined per node (genesis's miner -1 excluded)."""
        return {
            int(row[0]): int(row[1])
            for row in self._conn.execute(
                "SELECT miner, COUNT(*) FROM blocks WHERE miner >= 0 GROUP BY miner"
            )
        }

    def accounts(self) -> Dict[int, Tuple[str, str]]:
        """node id → (address, public key hex)."""
        return {
            int(row[0]): (str(row[1]), str(row[2]))
            for row in self._conn.execute(
                "SELECT node_id, address, public_key FROM accounts"
            )
        }

    # -- lifecycle compaction ----------------------------------------------------------

    def compact(self, archive, up_to: int, checkpoints=None) -> int:
        """Migrate blocks below ``up_to`` into the cold archive, then reclaim.

        Crash-safe by ordering: the whole range is streamed out of the
        store by one ordered query — every row's bytes checked by hashing
        them (:func:`~repro.core.serialization.verify_block_bytes`) and
        passed on undecoded, none of it through the LRU cache — and
        appended to the archive as one batch, which is fsynced *before*
        any hot row is deleted; the staged puts are committed, then the
        deletes and the ``pruned_below`` floor bump commit in one
        transaction, and only then does VACUUM return the pages to the
        filesystem.  A crash at any point resumes idempotently — a torn
        batch is truncated to whole records when the archive is next
        opened, the append skips what the archive already holds
        (contiguous floor), and the deletes re-run harmlessly.  Cold
        blocks are read through ``repro archive fetch``.

        ``checkpoints`` maps block index → :class:`CheckpointRecord`;
        records falling in the compacted range are pinned into the
        archive alongside their block.  Returns the number of blocks
        moved out of the hot tier.
        """
        floor = self.pruned_below()
        if up_to <= floor:
            return 0
        if up_to > self.height():
            raise PersistError(
                f"cannot compact to {up_to}: store height is {self.height()}"
            )
        pinned = dict(checkpoints or {})
        archive.append_encoded(
            self._blocks_to_archive(archive.archived_below, up_to, pinned)
        )
        self.commit()
        with self._conn:
            self._conn.execute("DELETE FROM blocks WHERE idx < ?", (up_to,))
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
                ("pruned_below", str(up_to)),
            )
        for index in [i for i in self._cache if i < up_to]:
            del self._cache[index]
        self._conn.execute("VACUUM")
        # VACUUM in WAL mode rewrites the database *through* the WAL, so
        # the reclaimed pages sit in chain.sqlite-wal until a checkpoint;
        # truncate it now so compaction actually returns disk.
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        moved = up_to - floor
        if _obs.is_enabled():
            _obs.add("lifecycle.compacted_blocks", moved)
        return moved

    def _blocks_to_archive(self, start: int, stop: int, pinned) -> Iterator:
        """``(index, hash, bytes, pinned checkpoint)`` for each hot index in
        ``[start, stop)``, checked, in order; the first index the store
        lacks raises."""
        expected = start
        for index, block_hash, payload in self._conn.execute(
            "SELECT idx, hash, payload FROM blocks WHERE idx >= ? AND idx < ? ORDER BY idx",
            (start, stop),
        ):
            if index != expected:
                break
            verify_block_bytes(payload, index, block_hash)
            yield index, block_hash, payload, pinned.get(index)
            expected += 1
        if expected < stop:
            raise PersistError(
                f"cannot compact: block {expected} is missing from the store"
            )

    def footprint_bytes(self) -> int:
        """On-disk bytes of the hot store (main db + WAL + shared memory)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total

    # -- integrity --------------------------------------------------------------------

    def verify_integrity(self) -> List[str]:
        """Re-walk the store; returns human-readable problems (empty = ok).

        A compacted store anchors at its ``pruned_below`` floor: the walk
        starts there, and the first retained block's parent linkage is
        vouched for by the archive (its hash commits to the pruned
        prefix), not re-checked here.
        """
        problems: List[str] = []
        previous: Optional[Block] = None
        expected_index = self.pruned_below()
        for row in self._conn.execute(
            "SELECT idx, hash, payload FROM blocks ORDER BY idx"
        ):
            index, column_hash = _stored_int(row[0], "block index"), str(row[1])
            if index != expected_index:
                problems.append(
                    f"block index gap: expected {expected_index}, found {index}"
                )
                expected_index = index
            try:
                block = block_from_bytes(row[2])
            except ValidationError as error:
                problems.append(f"block {index} payload invalid: {error}")
                previous, expected_index = None, index + 1
                continue
            if block.current_hash != column_hash:
                problems.append(
                    f"block {index} hash column does not match its payload"
                )
            if block.index != index:
                problems.append(
                    f"block stored at idx {index} claims index {block.index}"
                )
            if previous is not None and not block.links_to(previous):
                problems.append(f"block {index} does not link to block {index - 1}")
            previous = block
            expected_index = index + 1
        return problems

    def close(self) -> None:
        """Commit what is staged and close; closing again does nothing."""
        if self._closed:
            return
        self._closed = True
        try:
            self.commit()
        finally:
            self._conn.close()

    def __enter__(self) -> "ChainStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
