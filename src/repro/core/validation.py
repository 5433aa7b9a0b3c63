"""Allocation verification: re-derive a miner's placement decisions.

The paper's placements are computed from *public* inputs — the chain-
derived storage state (FDC) and the shared topology (RDC) — with a
deterministic solver.  That makes them verifiable: any node can replay the
miner's UFL solves and reject a block whose storing-node lists differ,
closing the "crony miner" loophole where a miner hands the storage
incentives (and the PoS advantage that comes with Q) to itself or friends.

Verification replays the block's decisions in block order against state at
the block's timestamp, exactly as :meth:`EdgeNode._build_block` computes
them.  Only deterministic solvers are verifiable; the Fig. 5 ``random``
baseline is exempt by construction.
"""

from __future__ import annotations

from typing import List, Sequence

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
    violations: List[str] = []
    now = block.timestamp
    node_ids = list(state.node_ids)
    index_of = {node: index for index, node in enumerate(node_ids)}
    capacity = float(storage_capacity)
    used = [
        min(float(state.used_slots(node, now)), capacity) for node in node_ids
    ]
    total = [capacity] * len(node_ids)

    def place():
        try:
            return allocator.place_item(used, total, hop_matrix, mobility_ranges)
        except AllocationError:
            return None

    for item in block.metadata_items:
        decision = place()
        expected = decision.storing_nodes if decision else ()
        if tuple(sorted(item.storing_nodes)) != tuple(sorted(expected)):
            violations.append(
                f"data {item.data_id[:8]}: block assigns "
                f"{sorted(item.storing_nodes)}, solver derives {sorted(expected)}"
            )
        # Continue the replay with the block's (claimed) assignment so one
        # divergence does not cascade into spurious reports.  Clamp at
        # capacity: a forged block can claim physically impossible fills.
        for node in item.storing_nodes:
            index = index_of.get(node)
            if index is not None:
                used[index] = min(used[index] + 1.0, total[index])

    decision = place()
    expected_block = decision.storing_nodes if decision else ()
    if tuple(sorted(block.storing_nodes)) != tuple(sorted(expected_block)):
        violations.append(
            f"block storage: block assigns {sorted(block.storing_nodes)}, "
            f"solver derives {sorted(expected_block)}"
        )
    for node in block.storing_nodes:
        index = index_of.get(node)
        if index is not None:
            used[index] = min(used[index] + 1.0, total[index])

    expected_recent = select_recent_cache_nodes(
        allocator,
        used,
        total,
        hop_matrix,
        mobility_ranges,
        already_storing=tuple(block.storing_nodes) + (block.miner,),
    )
    if tuple(sorted(block.recent_cache_nodes)) != tuple(sorted(expected_recent)):
        violations.append(
            f"recent cache: block assigns {sorted(block.recent_cache_nodes)}, "
            f"solver derives {sorted(expected_recent)}"
        )
    return violations
