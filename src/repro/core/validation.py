"""Block placement: the one rule a miner fills a block with and a validator checks.

The paper's placements are computed from *public* inputs — the chain-
derived storage state (FDC) and the shared topology (RDC) — with a
deterministic solver.  :func:`derive_placement` is that computation: from
the state after the parent, at the block's timestamp, it places each
packed item, then the block itself, then the extra recent-cache holders
(§IV-B/C), every decision seeing the slots the earlier ones took.
:meth:`EdgeNode._build_block` writes its result into the block, and
:func:`verify_block_allocations` derives it again and compares it with
what the block claims — closing the "crony miner" loophole where a miner
hands the storage incentives (and the PoS advantage that comes with Q)
to itself or friends.

A node with ``validate_allocations`` on hands the check to its chain
(``Blockchain.append_block``'s ``placements``), which runs it on every
block it would append — announced, drained from the sync buffer, or in
the suffix of an adopted chain — and refuses a mismatch with
:class:`~repro.core.errors.AllocationMismatchError` (``bad_allocation``).
Only deterministic solvers are verifiable; the Fig. 5 ``random``
baseline is exempt by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.allocation import AllocationEngine
from repro.core.block import Block
from repro.core.blockchain import ChainState
from repro.core.errors import AllocationError
from repro.core.recent_blocks import select_recent_cache_nodes

#: Solvers whose decisions a validator can reproduce exactly.
DETERMINISTIC_SOLVERS = ("greedy",)


def allocations_verifiable(solver: str) -> bool:
    return solver in DETERMINISTIC_SOLVERS


@dataclass(frozen=True)
class Placement:
    """Where one block's storage goes."""

    #: Storing nodes of each packed item, in block order.
    items: Tuple[Tuple[int, ...], ...]
    #: The block's permanent storing nodes.
    block: Tuple[int, ...]
    #: The extra nodes that cache the block in their recent cache.
    recent: Tuple[int, ...]


def derive_placement(
    item_count: int,
    miner: int,
    now: float,
    state: ChainState,
    allocator: AllocationEngine,
    hop_matrix: np.ndarray,
    mobility_ranges: Sequence[float],
    storage_capacity: int,
) -> Placement:
    """The placement of a block mined by ``miner`` at ``now`` on ``state``.

    ``state`` is the chain state after the block's parent.  When no node
    has a free slot a decision places nowhere (an empty tuple).  Every
    decision of one block shares ``hop_matrix`` and ``mobility_ranges``,
    so ``allocator`` checks them (integrality, reach, Eq. 3's exactness
    bound) once per topology epoch, not per decision.
    """
    node_ids = list(state.node_ids)
    index_of = {node: index for index, node in enumerate(node_ids)}
    capacity = float(storage_capacity)
    # Clamp: a chain carrying forged assignments can credit a node with
    # more slots than physically exist; for placement it is just full.
    used = [min(float(state.used_slots(node, now)), capacity) for node in node_ids]
    total = [capacity] * len(node_ids)

    def place() -> Tuple[int, ...]:
        try:
            decision = allocator.place_item(used, total, hop_matrix, mobility_ranges)
        except AllocationError:
            return ()
        for node in decision.storing_nodes:
            used[index_of[node]] += 1.0
        return decision.storing_nodes

    items = tuple(place() for _ in range(item_count))
    block = place()
    recent = select_recent_cache_nodes(
        allocator,
        used,
        total,
        hop_matrix,
        mobility_ranges,
        already_storing=block + (miner,),
    )
    return Placement(items=items, block=block, recent=recent)


def verify_block_allocations(
    block: Block,
    state: ChainState,
    allocator: AllocationEngine,
    hop_matrix: np.ndarray,
    mobility_ranges: Sequence[float],
    storage_capacity: int,
) -> List[str]:
    """Re-derive every placement in ``block``; returns found violations.

    ``state`` must be the chain state *before* applying the block (i.e.
    after its parent).  An empty list means the block's storing-node
    choices match what the configured solver produces from public inputs.
    """
    if not allocations_verifiable(allocator.config.placement_solver):
        raise ValueError(
            f"solver {allocator.config.placement_solver!r} is not verifiable"
        )
    derived = derive_placement(
        len(block.metadata_items),
        block.miner,
        block.timestamp,
        state,
        allocator,
        hop_matrix,
        mobility_ranges,
        storage_capacity,
    )
    violations = [
        f"data {item.data_id[:8]}: block assigns "
        f"{sorted(item.storing_nodes)}, solver derives {sorted(nodes)}"
        for item, nodes in zip(block.metadata_items, derived.items)
        if sorted(item.storing_nodes) != sorted(nodes)
    ]
    if sorted(block.storing_nodes) != sorted(derived.block):
        violations.append(
            f"block storage: block assigns {sorted(block.storing_nodes)}, "
            f"solver derives {sorted(derived.block)}"
        )
    if sorted(block.recent_cache_nodes) != sorted(derived.recent):
        violations.append(
            f"recent cache: block assigns {sorted(block.recent_cache_nodes)}, "
            f"solver derives {sorted(derived.recent)}"
        )
    return violations
