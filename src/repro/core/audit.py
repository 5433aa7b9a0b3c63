"""Ledger audit: explain every token a node holds from chain history.

"S and Q of each node can be obtained and validated through the history of
the blockchain" (Section V-A).  This module makes that auditable: a replay
over the chain that attributes every token to its source event (mining a
block, storing a data item, storing a block, caching a recent block) and
every rescaling, so a dispute about a balance can be settled by pointing
at blocks.

Only the incentive tests use it, as an independent oracle for the chain's
ledger; it is also a debugging tool when a PoS validation fails with an
unexpected S_i.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.block import Block
from repro.core.config import SystemConfig


class EarningKind(enum.Enum):
    INITIAL = "initial"
    MINING = "mining"
    DATA_STORAGE = "data_storage"
    BLOCK_STORAGE = "block_storage"
    RECENT_CACHE = "recent_cache"
    RESCALE = "rescale"


@dataclass(frozen=True)
class LedgerEvent:
    """One attribution: which block paid (or rescaled) which node."""

    block_index: int
    node: int
    kind: EarningKind
    amount: float  # token delta (multiplicative events record the delta too)
    detail: str = ""


@dataclass
class AuditReport:
    """Full attribution of balances for a chain."""

    events: List[LedgerEvent]
    balances: Dict[int, float]

    def events_for(self, node: int) -> List[LedgerEvent]:
        return [event for event in self.events if event.node == node]

    def earned_by_kind(self, node: int) -> Dict[EarningKind, float]:
        totals: Dict[EarningKind, float] = {}
        for event in self.events_for(node):
            totals[event.kind] = totals.get(event.kind, 0.0) + event.amount
        return totals

    def balance(self, node: int) -> float:
        return self.balances[node]


def audit_chain(
    blocks: Sequence[Block], node_ids: Sequence[int], config: SystemConfig
) -> AuditReport:
    """Replay a chain and attribute every token movement.

    The resulting balances must equal ``ChainState.tokens`` after the same
    replay — the equivalence test in the suite checks exactly that.
    """
    balances: Dict[int, float] = {node: config.initial_tokens for node in node_ids}
    events: List[LedgerEvent] = [
        LedgerEvent(0, node, EarningKind.INITIAL, config.initial_tokens, "genesis stake")
        for node in sorted(node_ids)
    ]
    known = set(node_ids)

    for block in blocks:
        if block.is_genesis:
            continue
        if block.miner in known:
            balances[block.miner] += config.mining_incentive
            events.append(
                LedgerEvent(
                    block.index,
                    block.miner,
                    EarningKind.MINING,
                    config.mining_incentive,
                    f"mined block {block.index}",
                )
            )
        for item in block.metadata_items:
            for node in item.storing_nodes:
                if node not in known:
                    continue
                balances[node] += config.storage_incentive
                events.append(
                    LedgerEvent(
                        block.index,
                        node,
                        EarningKind.DATA_STORAGE,
                        config.storage_incentive,
                        f"stores data {item.data_id[:8]}",
                    )
                )
        for node in block.storing_nodes:
            if node not in known:
                continue
            balances[node] += config.storage_incentive
            events.append(
                LedgerEvent(
                    block.index,
                    node,
                    EarningKind.BLOCK_STORAGE,
                    config.storage_incentive,
                    f"stores block {block.index}",
                )
            )
        for node in block.recent_cache_nodes:
            if node not in known:
                continue
            balances[node] += config.storage_incentive
            events.append(
                LedgerEvent(
                    block.index,
                    node,
                    EarningKind.RECENT_CACHE,
                    config.storage_incentive,
                    f"caches recent block {block.index}",
                )
            )
        if block.index % config.token_rescale_interval == 0:
            ratio = config.token_rescale_ratio
            for node in sorted(known):
                delta = balances[node] * (ratio - 1.0)
                balances[node] *= ratio
                events.append(
                    LedgerEvent(
                        block.index,
                        node,
                        EarningKind.RESCALE,
                        delta,
                        f"S-rescale ×{ratio}",
                    )
                )
    return AuditReport(events=events, balances=balances)
