"""Exception hierarchy for the edge blockchain core."""

from __future__ import annotations


class EdgeChainError(Exception):
    """Base class for all protocol-level errors."""


class ValidationError(EdgeChainError):
    """A block, metadata item, or signature failed validation."""


class ChainLinkError(ValidationError):
    """A block does not link to its predecessor (hash/index mismatch)."""


class ConsensusError(ValidationError):
    """A PoS hit/target claim does not verify against chain state."""


class CheckpointError(ValidationError):
    """A candidate chain would rewrite a block at or below the last
    checkpoint (Section V-D's nothing-at-stake mitigation).

    Subclasses :class:`ValidationError` so existing chain-adoption
    handlers keep rejecting these chains; admission control additionally
    records the rejection under its own structured reason.
    """


class AllocationMismatchError(ValidationError):
    """A block's storing-node or recent-cache assignments differ from what
    the deterministic solver derives from public inputs (crony placement;
    see :mod:`repro.core.validation`)."""


class PrunedBlockError(IndexError, EdgeChainError):
    """A block body below the retention horizon was requested.

    Subclasses :class:`IndexError` so callers that already treat
    ``block_at`` misses as index errors keep working; lifecycle-aware
    callers can catch it specifically to distinguish "pruned" from
    "never existed".
    """


class StorageError(EdgeChainError):
    """A storage operation failed (capacity exhausted, unknown item...)."""


class AllocationError(EdgeChainError):
    """The placement problem could not be solved (e.g. all nodes full)."""


class SyncError(EdgeChainError):
    """Block synchronisation failed (unsatisfiable request, bad response)."""


class PersistError(EdgeChainError):
    """A durable-persistence operation failed (corrupt journal, bad
    manifest, incompatible store schema, unresumable or divergent run)."""


class FormatVersionError(PersistError):
    """A store, archive or journal was written in a format version this
    build does not read.  Never mistaken for damage: a reader refuses the
    file instead of truncating it."""
