"""System-wide configuration.

Defaults follow the paper's evaluation setup (Section VI):

* 300 m × 300 m field, 70 m radio range, 30 m mobility range,
* 250 storage slots per node (data items or blocks),
* 60 s expected block interval, 500-minute runs,
* 1 MB data items, blocks well under 10 KB,
* 10 ms per-hop propagation delay,
* 10 % of nodes request each data item,
* FDC:RDC weighting A = 1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Size of one data item in bytes (paper: 1 MB).
DATA_ITEM_BYTES = 1_000_000

#: Largest possible hit value M (Eq. 7).  2^64 keeps arithmetic exact in
#: Python ints while being "very large" as the paper requires.
DEFAULT_HIT_MODULUS = 2**64


@dataclass(frozen=True)
class LifecycleSpec:
    """Finite-lifetime-block policy (see :mod:`repro.lifecycle`).

    With a spec configured (and ``checkpoint_interval > 0``), a node keeps
    only the most recent ``retain_blocks`` block bodies in memory: once a
    checkpoint is buried deeper than the retention window, the chain pins
    a :class:`~repro.lifecycle.checkpoint.CheckpointRecord` (cumulative
    ledger digest + stake summary) at that checkpoint and drops every body
    below it.  The durable chain store migrates the same range into the
    cold archive tier on its next compaction.
    """

    #: Block bodies kept above the pruning horizon.  The horizon only ever
    #: advances to checkpoint indices, so the retained window can be up to
    #: one checkpoint interval larger than this.
    retain_blocks: int = 256

    def __post_init__(self) -> None:
        if self.retain_blocks < 1:
            raise ValueError("retain_blocks must be at least 1")


@dataclass(frozen=True)
class SystemConfig:
    """All tunables of the edge blockchain system."""

    # --- network geometry (paper Section VI) ---
    field_size: float = 300.0
    comm_range: float = 70.0
    mobility_range: float = 30.0
    hop_delay: float = 0.010
    bandwidth: Optional[float] = 5_000_000.0

    # --- storage ---
    storage_capacity: int = 250
    #: Default metadata validity in minutes (paper examples use 720–2880).
    default_valid_time_minutes: float = 1440.0
    #: FIFO capacity of the recent-block cache (beyond the mandatory last
    #: block every node keeps).
    recent_cache_capacity: int = 10

    # --- allocation ---
    fdc_weight: float = 1000.0
    #: Placement: "greedy" (the UFL solve, verifiable by any validator)
    #: or "random" (the Fig. 5 baseline).
    placement_solver: str = "greedy"
    #: Replica count the random baseline copies from the optimal solution;
    #: None means "match the optimal solver's choice per item".
    random_replicas: Optional[int] = None
    #: Re-derive every block's storing-node decisions on receipt and reject
    #: mismatches (catches crony miners; deterministic solvers only).
    validate_allocations: bool = False

    # --- consensus ---
    #: "pos" runs the paper's mechanism (Section V); "pow" runs the
    #: traditional-blockchain baseline at network level (each node
    #: brute-forces; energy billed per hash attempt).
    consensus: str = "pos"
    pow_difficulty: float = 4.0
    #: PoW hash rate per node, attempts/second (default: the paper's
    #: handset rate — difficulty 4 at a 25 s average block time).
    pow_hash_rate: float = 16**4 / 25.0

    # --- PoS consensus (Section V) ---
    expected_block_interval: float = 60.0  # t0, seconds
    hit_modulus: int = DEFAULT_HIT_MODULUS  # M
    mining_incentive: float = 1.0  # tokens per mined block
    storage_incentive: float = 1.0  # tokens per storage assignment (paper:
    # "the same incentive as the nodes that store a data item or a block")
    initial_tokens: float = 1.0  # new nodes need ≥ 1 token
    #: Rescale S_i (and recompute B) every this many blocks to keep B sane.
    token_rescale_interval: int = 100
    token_rescale_ratio: float = 0.5
    #: Checkpoint every this many blocks: reorganisations that would rewrite
    #: a block at or below the last checkpoint are refused (Section V-D's
    #: nothing-at-stake mitigation).  0 disables checkpointing.
    checkpoint_interval: int = 0
    #: Confirmation depth before a block may become a checkpoint.  A node
    #: must never checkpoint a block that live forks could still replace —
    #: otherwise a briefly-forked node locks itself out of the honest
    #: chain.  None defaults to 2× the interval.
    checkpoint_lag: Optional[int] = None
    #: Finite-lifetime-block policy: checkpoint-anchored pruning of block
    #: bodies below the retention horizon (None = chains grow unbounded,
    #: the historical behaviour).  Requires ``checkpoint_interval > 0``.
    lifecycle: Optional[LifecycleSpec] = None

    # --- adversarial hardening (admission control / quarantine) ---
    #: Misbehavior score at which a peer is quarantined (no longer
    #: accepted from or forwarded to).  Honest peers never accumulate
    #: score, so the default only ever triggers under attack.
    quarantine_threshold: float = 8.0
    #: Cap on out-of-order blocks buffered during gap recovery; blocks
    #: furthest ahead of the tip are evicted first past the limit.
    sync_buffer_limit: int = 512
    #: Cap on requested-and-not-yet-received gap indices per recovery.
    sync_outstanding_limit: int = 256
    #: Verify producer ECDSA signatures on inbound metadata items.  Off
    #: by default (pure-Python ECDSA is slow and honest runs never fail
    #: it); chaos scenarios with metadata tamperers switch it on.
    verify_metadata_signatures: bool = False

    # --- workload (Section VI-A) ---
    data_items_per_minute: float = 1.0
    requester_fraction: float = 0.10
    simulation_minutes: float = 500.0

    def __post_init__(self) -> None:
        if self.field_size <= 0 or self.comm_range <= 0:
            raise ValueError("field size and comm range must be positive")
        if self.mobility_range < 0:
            raise ValueError("mobility range must be non-negative")
        # Eq. 1–3 stay integers, so placement is decided exactly.
        if not float(self.mobility_range).is_integer():
            raise ValueError("mobility range must be a whole number of metres")
        if not float(self.fdc_weight).is_integer():
            raise ValueError("FDC weight must be a whole number")
        if self.storage_capacity < 1:
            raise ValueError("storage capacity must be at least 1 slot")
        if self.expected_block_interval <= 0:
            raise ValueError("expected block interval must be positive")
        if self.hit_modulus < 2:
            raise ValueError("hit modulus must be at least 2")
        if not (0.0 <= self.requester_fraction <= 1.0):
            raise ValueError("requester fraction must be in [0, 1]")
        if self.data_items_per_minute < 0:
            raise ValueError("data rate cannot be negative")
        if self.placement_solver not in ("greedy", "random"):
            raise ValueError(f"unknown placement solver: {self.placement_solver}")
        if not (0 < self.token_rescale_ratio <= 1):
            raise ValueError("token rescale ratio must be in (0, 1]")
        if self.token_rescale_interval < 1:
            raise ValueError("token rescale interval must be ≥ 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint interval cannot be negative")
        if self.checkpoint_lag is not None and self.checkpoint_lag < 0:
            raise ValueError("checkpoint lag cannot be negative")
        if self.lifecycle is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                "lifecycle pruning is checkpoint-anchored: "
                "set checkpoint_interval > 0"
            )
        if self.consensus not in ("pos", "pow"):
            raise ValueError(f"unknown consensus mechanism: {self.consensus}")
        if self.pow_difficulty < 0:
            raise ValueError("PoW difficulty cannot be negative")
        if self.pow_hash_rate <= 0:
            raise ValueError("PoW hash rate must be positive")
        if self.initial_tokens < 1.0:
            raise ValueError("new nodes need at least one token (Section V-A)")
        if self.quarantine_threshold <= 0:
            raise ValueError("quarantine threshold must be positive")
        if self.sync_buffer_limit < 1:
            raise ValueError("sync buffer limit must be at least 1")
        if self.sync_outstanding_limit < 1:
            raise ValueError("sync outstanding limit must be at least 1")


#: The paper's evaluation configuration.
PAPER_CONFIG = SystemConfig()
