"""Chain lifecycle: finite-lifetime blocks with checkpoint-anchored pruning.

The paper's edge nodes have strictly bounded storage, yet a chain that
never forgets grows without bound.  This subsystem keeps per-node storage
bounded on long runs while preserving every digest/verification contract
(DESIGN.md §14):

* :class:`~repro.core.config.LifecycleSpec` (lives in config so it rides
  the existing manifest round-trip) configures the retention window;
* :mod:`repro.lifecycle.spec` derives the pruning horizon and the hot
  storage bound from a config;
* :mod:`repro.lifecycle.checkpoint` pins a :class:`CheckpointRecord` —
  cumulative ledger digest + validator/stake summary — at every pruned-to
  checkpoint, the snippet idiom of keeping digests at checkpoints and
  dropping bodies below them;
* :mod:`repro.lifecycle.archive` is the cold tier: an append-only,
  CRC-checked binary record file the chain store's ``compact()``
  migrates pruned block bytes into.
"""

from repro.core.config import LifecycleSpec
from repro.lifecycle.archive import ARCHIVE_NAME, BlockArchive, ArchiveStats
from repro.lifecycle.checkpoint import CheckpointRecord
from repro.lifecycle.spec import hot_bound_blocks, lifecycle_enabled, retention_horizon

__all__ = [
    "ARCHIVE_NAME",
    "ArchiveStats",
    "BlockArchive",
    "CheckpointRecord",
    "LifecycleSpec",
    "hot_bound_blocks",
    "lifecycle_enabled",
    "retention_horizon",
]
