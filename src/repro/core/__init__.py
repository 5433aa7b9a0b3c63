"""The edge blockchain core — the paper's primary contribution.

Public surface: accounts, metadata, blocks, the validated chain with its
derived state, the PoS mechanism (Eqs. 7–9, 14), the PoW baseline, storage
management, the UFL-backed allocation engine, recent-block allocation,
block-recovery sync, protocol messages, and the full :class:`EdgeNode`.
"""

from repro.core.account import Account, address_is_valid, derive_address, verify_address
from repro.core.adversary import CronyMiner, DenyingNode, SilentNode
from repro.core.validation import allocations_verifiable, verify_block_allocations
from repro.core.audit import AuditReport, EarningKind, LedgerEvent, audit_chain
from repro.core.serialization import (
    block_from_dict,
    block_to_dict,
    metadata_from_dict,
    metadata_to_dict,
)
from repro.core.allocation import AllocationDecision, AllocationEngine
from repro.core.block import GENESIS_PREVIOUS_HASH, Block, make_genesis
from repro.core.blockchain import Blockchain, BlockOutcome, ChainState
from repro.core.config import DATA_ITEM_BYTES, PAPER_CONFIG, SystemConfig
from repro.core.errors import (
    AllocationError,
    ChainLinkError,
    ConsensusError,
    EdgeChainError,
    StorageError,
    SyncError,
    ValidationError,
)
from repro.core.metadata import MetadataItem, create_metadata
from repro.core.node import EdgeNode, NodeCounters
from repro.core.pos import (
    MiningClaim,
    compute_amendment,
    compute_hit,
    compute_pos_hash,
    mining_delay,
    per_second_mining_loop,
    satisfies_target,
    target_value,
)
from repro.core.pow import (
    PAPER_POW_DIFFICULTY,
    PowBlockResult,
    PowMiner,
)
from repro.core.recent_blocks import recent_block_coverage, select_recent_cache_nodes
from repro.core.storage import NodeStorage, StoredData
from repro.core.sync import SyncState, plan_block_requests

__all__ = [
    "Account",
    "derive_address",
    "verify_address",
    "address_is_valid",
    "MetadataItem",
    "create_metadata",
    "Block",
    "make_genesis",
    "GENESIS_PREVIOUS_HASH",
    "Blockchain",
    "BlockOutcome",
    "ChainState",
    "SystemConfig",
    "PAPER_CONFIG",
    "DATA_ITEM_BYTES",
    "compute_pos_hash",
    "compute_hit",
    "compute_amendment",
    "target_value",
    "satisfies_target",
    "mining_delay",
    "per_second_mining_loop",
    "MiningClaim",
    "PowMiner",
    "PowBlockResult",
    "PAPER_POW_DIFFICULTY",
    "NodeStorage",
    "StoredData",
    "AllocationEngine",
    "AllocationDecision",
    "select_recent_cache_nodes",
    "recent_block_coverage",
    "SyncState",
    "plan_block_requests",
    "EdgeNode",
    "NodeCounters",
    "DenyingNode",
    "SilentNode",
    "CronyMiner",
    "allocations_verifiable",
    "verify_block_allocations",
    "audit_chain",
    "AuditReport",
    "LedgerEvent",
    "EarningKind",
    "block_to_dict",
    "block_from_dict",
    "metadata_to_dict",
    "metadata_from_dict",
    "EdgeChainError",
    "ValidationError",
    "ChainLinkError",
    "ConsensusError",
    "StorageError",
    "AllocationError",
    "SyncError",
]
