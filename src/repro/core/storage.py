"""Per-node local storage.

Each edge device can hold a fixed number of slots ("each node has the
capability to store 250 data items or blocks", Section VI), shared between:

* **data items** it was assigned to store (evicted when they expire),
* **blocks** it was assigned to persist (permanent),
* the **recent-block FIFO cache** (Section IV-C; bounded, FIFO-replaced),
* the mandatory **last block** every node keeps for mining.

This is the node's *actual* storage, as opposed to the chain-derived
assignment view in :class:`~repro.core.blockchain.ChainState`: a node that
was assigned an item but hasn't fetched the bytes yet holds the slot but
cannot serve the data (``can_serve`` is False until the fetch completes).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.block import Block
from repro.core.errors import StorageError
from repro.core.metadata import MetadataItem


@dataclass
class StoredData:
    """One locally stored data item."""

    metadata: MetadataItem
    #: True once the actual bytes were fetched from the producer.
    has_payload: bool = False


def _expiry_record(seq: int, entry: StoredData) -> Tuple[float, int, str, StoredData]:
    """``entry``'s record on the expiry heap."""
    return (entry.metadata.expires_at, seq, entry.metadata.data_id, entry)


class NodeStorage:
    """Slot-based storage manager for one node."""

    #: ``(expires_at, insertion seq, data_id, entry)`` per data slot, a
    #: min-heap built on the first eviction and kept beside ``_data``;
    #: ``None`` until then (it is derived state).
    _expiry: Optional[List[Tuple[float, int, str, StoredData]]] = None
    #: The insertion seq the next record pushed onto ``_expiry`` takes.
    _seq = 0

    def __init__(self, capacity: int, recent_cache_capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1 slot")
        if recent_cache_capacity < 0:
            raise ValueError("recent cache capacity cannot be negative")
        self.capacity = capacity
        self.recent_cache_capacity = recent_cache_capacity
        self._data: "OrderedDict[str, StoredData]" = OrderedDict()
        self._blocks: Dict[int, Block] = {}
        self._recent: Deque[Block] = deque()
        self._last_block: Optional[Block] = None
        #: Count of items dropped because the node was full.
        self.rejected_for_capacity = 0
        #: Assigned-block bodies released by lifecycle pruning.  The slots
        #: stay occupied — the chain-recorded assignment (and its Q_i
        #: credit) stands, only the serveable body moved to the cold tier.
        self._pruned_block_slots = 0

    # -- accounting --------------------------------------------------------------

    @property
    def pruned_block_slots(self) -> int:
        return self._pruned_block_slots

    def used_slots(self) -> int:
        """Slots in use (data + blocks + recent cache + the last block)."""
        return (
            len(self._data)
            + len(self._blocks)
            + self.pruned_block_slots
            + len(self._recent)
            + (1 if self._last_block is not None else 0)
        )

    def free_slots(self) -> int:
        return self.capacity - self.used_slots()

    @property
    def is_full(self) -> bool:
        return self.free_slots() <= 0

    # -- data items ------------------------------------------------------------------

    def store_data(self, metadata: MetadataItem, has_payload: bool = False) -> None:
        """Reserve a slot for an assigned data item.

        Raises :class:`StorageError` when the node is full (the caller
        counts the rejection; the allocator should not have picked a full
        node, but races with expiry can cause this).
        """
        if metadata.data_id in self._data:
            existing = self._data[metadata.data_id]
            existing.has_payload = existing.has_payload or has_payload
            return
        if self.is_full:
            self.rejected_for_capacity += 1
            raise StorageError("storage full")
        entry = self._data[metadata.data_id] = StoredData(
            metadata=metadata, has_payload=has_payload
        )
        if self._expiry is not None:
            heapq.heappush(self._expiry, _expiry_record(self._seq, entry))
            self._seq += 1

    def mark_payload_received(self, data_id: str) -> None:
        entry = self._data.get(data_id)
        if entry is None:
            raise StorageError(f"data {data_id} is not stored here")
        entry.has_payload = True

    def has_data(self, data_id: str) -> bool:
        return data_id in self._data

    def can_serve(self, data_id: str) -> bool:
        """True when this node holds the actual payload, not just the slot."""
        entry = self._data.get(data_id)
        return entry is not None and entry.has_payload

    def drop_data(self, data_id: str) -> None:
        self._data.pop(data_id, None)

    def evict_expired(self, now: float) -> List[str]:
        """Drop expired data items; returns the evicted ids in insertion
        order.

        Pops the expiry heap while its top has expired, skipping the
        records of items since dropped or stored anew; insertion seqs
        follow ``_data``'s order, so sorting by them is that order.
        """
        if self._expiry is None:
            self._expiry = [
                _expiry_record(seq, entry) for seq, entry in enumerate(self._data.values())
            ]
            heapq.heapify(self._expiry)
            self._seq = len(self._expiry)
        expired = []
        while self._expiry and self._expiry[0][0] <= now:
            _, seq, data_id, entry = heapq.heappop(self._expiry)
            if self._data.get(data_id) is entry:
                expired.append((seq, data_id))
        expired.sort()
        for _, data_id in expired:
            del self._data[data_id]
        return [data_id for _, data_id in expired]

    def data_ids(self) -> Set[str]:
        return set(self._data.keys())

    def data_entries(self) -> Tuple[StoredData, ...]:
        """Stored data entries in insertion order (the wire order)."""
        return tuple(self._data.values())

    # -- blocks --------------------------------------------------------------------------

    def store_block(self, block: Block) -> None:
        """Persist a block this node was assigned to store."""
        if block.index in self._blocks:
            return
        if self.is_full:
            self.rejected_for_capacity += 1
            raise StorageError("storage full")
        self._blocks[block.index] = block

    def has_block(self, index: int) -> bool:
        if index in self._blocks:
            return True
        if self._last_block is not None and self._last_block.index == index:
            return True
        return any(block.index == index for block in self._recent)

    def get_block(self, index: int) -> Optional[Block]:
        if index in self._blocks:
            return self._blocks[index]
        if self._last_block is not None and self._last_block.index == index:
            return self._last_block
        for block in self._recent:
            if block.index == index:
                return block
        return None

    def prune_block_bodies(self, before_index: int) -> int:
        """Drop assigned-block bodies below the lifecycle horizon.

        The slots stay counted (``pruned_block_slots``): the chain assigned
        them and Q_i credit is chain-derived, so releasing the slot would
        change placement inputs.  Only the serveable body goes — a
        ``get_block`` for a pruned index misses, exactly as if the body
        lived on the cold tier.  Returns the number of bodies dropped.
        """
        pruned = [index for index in self._blocks if index < before_index]
        for index in pruned:
            del self._blocks[index]
        self._pruned_block_slots = self.pruned_block_slots + len(pruned)
        return len(pruned)

    def stored_block_indices(self) -> Set[int]:
        indices = set(self._blocks.keys())
        indices.update(block.index for block in self._recent)
        if self._last_block is not None:
            indices.add(self._last_block.index)
        return indices

    # -- recent-block cache (Section IV-C) --------------------------------------------------

    def set_last_block(self, block: Block) -> None:
        """Every node keeps the last block (mining needs its POSHash)."""
        self._last_block = block

    @property
    def last_block(self) -> Optional[Block]:
        return self._last_block

    def cache_recent_block(self, block: Block) -> None:
        """Add a block to the FIFO recent cache (replacing the oldest)."""
        if any(cached.index == block.index for cached in self._recent):
            return
        self._recent.append(block)
        while len(self._recent) > self.recent_cache_capacity:
            self._recent.popleft()

    def recent_blocks(self) -> Tuple[Block, ...]:
        return tuple(self._recent)

    def assigned_blocks(self) -> Tuple[Block, ...]:
        """Permanently assigned blocks in insertion order (the wire order)."""
        return tuple(self._blocks.values())
