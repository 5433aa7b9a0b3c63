"""Typed admission control for inbound protocol traffic.

The paper's fault model is crash/churn — peers vanish (§IV-C/D) — but a
pervasive edge deployment must also survive peers that *lie*: forged
blocks, equivocating miners, tampered metadata, poisoned sync responses,
request floods.  This module gives every receive path in
:class:`~repro.core.node.EdgeNode` a shared vocabulary and bookkeeping:

* **structural admission checks** (:func:`block_admissible`,
  :func:`metadata_admissible`) — context-free predicates an honest
  message always passes, evaluated before any state is touched;
* **rejection classification** (:func:`classify_rejection`) — maps the
  typed validation errors raised by deeper checks onto stable, structured
  reason strings for counters and verdicts;
* **per-peer misbehavior scoring with quarantine**
  (:class:`AdmissionControl`) — each rejection charges its sender a
  weighted score; past ``quarantine_threshold`` the peer is quarantined:
  nothing further is accepted from it and nothing is forwarded to it;
* **equivocation detection** (:class:`EquivocationTracker`) — two
  distinct blocks from one miner at one height near the tip;
* **rate limiting** (:class:`RateLimiter`) — bounded per-peer inbound
  request rates so a flooder cannot amplify gap recovery into a storm.

Everything here is deterministic and side-effect-free with respect to
the simulation: no randomness is drawn, no events are scheduled, and on
honest runs no rejection is ever recorded — so enabling the checks
leaves honest-run digests bit-identical (the golden-run regression pins
this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.block import Block
from repro.core.errors import (
    AllocationMismatchError,
    ChainLinkError,
    CheckpointError,
    ConsensusError,
    ValidationError,
)
from repro.core.metadata import MetadataItem
from repro.obs import runtime as _obs

# -- rejection reasons -----------------------------------------------------------

#: Block content hash does not commit to the block's own fields.
BAD_HASH = "bad_hash"
#: Miner id unknown or miner address forged.
BAD_MINER = "bad_miner"
#: Non-positive index on a non-genesis message.
BAD_INDEX = "bad_index"
#: Block does not link to its predecessor (ChainLinkError).
BAD_LINKAGE = "bad_linkage"
#: PoS hit/target claim fails re-verification — Eq. 9 (ConsensusError).
BAD_POS = "bad_pos"
#: Storing-node / recent-cache assignments diverge from the deterministic
#: allocation re-derivation (AllocationMismatchError — crony placement).
BAD_ALLOCATION = "bad_allocation"
#: One miner, one height, two distinct blocks.
EQUIVOCATION = "equivocation"
#: Metadata producer id unknown or producer address forged.
BAD_PRODUCER = "bad_producer"
#: Metadata producer signature fails ECDSA verification.
BAD_SIGNATURE = "bad_signature"
#: A candidate chain would rewrite a checkpointed block (CheckpointError).
CHECKPOINT_REWRITE = "checkpoint_rewrite"
#: A candidate chain failed full replay validation.
BAD_CHAIN = "bad_chain"
#: Request rate or payload cardinality over the per-peer cap.
FLOOD = "flood"
#: Any other validation failure.
INVALID = "invalid"

#: Misbehavior score charged per rejection.  Content forgeries are
#: unambiguous protocol violations and weigh heavily; floods weigh
#: lightly so a single burst does not quarantine a peer, but a sustained
#: storm does.
REASON_WEIGHTS: Dict[str, float] = {
    BAD_HASH: 4.0,
    BAD_MINER: 4.0,
    BAD_INDEX: 4.0,
    BAD_LINKAGE: 4.0,
    BAD_POS: 4.0,
    BAD_ALLOCATION: 4.0,
    EQUIVOCATION: 10.0,
    BAD_PRODUCER: 4.0,
    BAD_SIGNATURE: 4.0,
    CHECKPOINT_REWRITE: 4.0,
    BAD_CHAIN: 4.0,
    FLOOD: 1.0,
    INVALID: 4.0,
}


def classify_rejection(error: ValidationError) -> str:
    """Stable reason string for a typed validation error."""
    if isinstance(error, CheckpointError):
        return CHECKPOINT_REWRITE
    if isinstance(error, ChainLinkError):
        return BAD_LINKAGE
    if isinstance(error, ConsensusError):
        return BAD_POS
    if isinstance(error, AllocationMismatchError):
        return BAD_ALLOCATION
    return INVALID


# -- structural admission checks -------------------------------------------------


def block_admissible(block: Block, address_of: Mapping[int, str]) -> Optional[str]:
    """Context-free checks every honest non-genesis block passes.

    Returns a rejection reason, or ``None`` when admissible.  These run
    before the block touches any chain or sync state, so a forged block
    is dropped without buffering it or reacting to it.
    """
    if block.index <= 0:
        return BAD_INDEX
    expected = address_of.get(block.miner)
    if expected is None or block.miner_address != expected:
        return BAD_MINER
    if not block.hash_is_valid():
        return BAD_HASH
    return None


def metadata_admissible(
    item: MetadataItem,
    address_of: Mapping[int, str],
    *,
    verify_signature: bool = False,
    signature_cache: Optional[Dict[Tuple[bytes, str], bool]] = None,
) -> Optional[str]:
    """Context-free checks every honest metadata item passes.

    The producer address must match the roster; with
    ``verify_signature`` the producer's ECDSA signature over the signed
    attributes (placement excluded — see :mod:`repro.core.metadata`) is
    checked too, memoised in ``signature_cache`` because pure-Python
    ECDSA is expensive and items are rebroadcast.
    """
    expected = address_of.get(item.producer)
    if expected is None or item.producer_address != expected:
        return BAD_PRODUCER
    if verify_signature:
        key = (item.signing_payload(), item.signature_hex)
        if signature_cache is not None and key in signature_cache:
            valid = signature_cache[key]
        else:
            valid = item.verify_signature()
            if signature_cache is not None:
                signature_cache[key] = valid
        if not valid:
            return BAD_SIGNATURE
    return None


# -- equivocation detection ------------------------------------------------------


@dataclass
class EquivocationTracker:
    """Detects one miner announcing two distinct blocks at one height.

    Only heights within ``window`` of the local tip are tracked: an
    honest node that lost its chain (crash restart) may legitimately
    re-mine low heights before whole-chain sync completes, and those
    stale announcements must not read as equivocation.  Near the tip the
    signal is sound — honest miners extend strictly longer chains, so
    they never produce two blocks at the same height.
    """

    window: int = 4
    seen: Dict[Tuple[int, int], str] = field(default_factory=dict)

    def observe(self, block: Block, tip_index: int) -> bool:
        """Record ``block``; True iff it equivocates with a seen block."""
        floor = tip_index - self.window
        if floor > 0:
            for key in [k for k in self.seen if k[0] <= floor]:
                del self.seen[key]
        if block.index <= floor:
            return False
        key = (block.index, block.miner)
        prior = self.seen.get(key)
        if prior is None:
            self.seen[key] = block.current_hash
            return False
        return prior != block.current_hash


# -- rate limiting ---------------------------------------------------------------


@dataclass
class RateLimiter:
    """Sliding-window per-key event budget (deterministic, no RNG)."""

    window: float = 60.0
    limit: int = 20
    events: Dict[int, Deque[float]] = field(default_factory=dict)

    def allow(self, key: int, now: float) -> bool:
        """Charge one event for ``key``; False when over budget."""
        bucket = self.events.setdefault(key, deque())
        cutoff = now - self.window
        while bucket and bucket[0] <= cutoff:
            bucket.popleft()
        if len(bucket) >= self.limit:
            return False
        bucket.append(now)
        return True


# -- per-peer misbehavior ledger -------------------------------------------------

#: Indices per BlockRequest / blocks per BlockResponse an honest peer
#: could plausibly send (gap recovery splits a bounded gap over fan-out
#: 2); anything larger is treated as a flood and dropped whole.
MAX_REQUEST_INDICES = 64
MAX_RESPONSE_BLOCKS = 128
#: Inbound block-request budget per peer per minute.
REQUEST_RATE_LIMIT = 20
REQUEST_RATE_WINDOW = 60.0
#: Inbound whole-chain-request budget per peer per minute (chain
#: responses are the heaviest reply a node can be goaded into sending).
CHAIN_RATE_LIMIT = 4
CHAIN_RATE_WINDOW = 60.0


@dataclass
class AdmissionControl:
    """One node's rejection counters and peer-misbehavior ledger."""

    quarantine_threshold: float = 8.0
    #: Total rejections by structured reason.
    rejections: Dict[str, int] = field(default_factory=dict)
    #: Accumulated misbehavior score per peer.
    scores: Dict[int, float] = field(default_factory=dict)
    #: Peers past the threshold; nothing is accepted from or routed to them.
    quarantined: Set[int] = field(default_factory=set)
    equivocation: EquivocationTracker = field(default_factory=EquivocationTracker)
    request_rate: RateLimiter = field(
        default_factory=lambda: RateLimiter(
            window=REQUEST_RATE_WINDOW, limit=REQUEST_RATE_LIMIT
        )
    )
    chain_rate: RateLimiter = field(
        default_factory=lambda: RateLimiter(
            window=CHAIN_RATE_WINDOW, limit=CHAIN_RATE_LIMIT
        )
    )
    signature_cache: Dict[Tuple[bytes, str], bool] = field(default_factory=dict)

    def reject(self, peer: Optional[int], reason: str) -> bool:
        """Record a rejection attributed to ``peer``.

        Returns True when this rejection newly quarantines the peer.
        ``peer`` may be ``None``/negative when the sender is unknown —
        the rejection is still counted, but nobody is charged.
        """
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        _obs.add("chaos.rejections")
        _obs.add(f"chaos.rejections.{reason}")
        if peer is None or peer < 0:
            return False
        score = self.scores.get(peer, 0.0) + REASON_WEIGHTS.get(reason, 4.0)
        self.scores[peer] = score
        if peer not in self.quarantined and score >= self.quarantine_threshold:
            self.quarantined.add(peer)
            _obs.add("chaos.quarantined")
            return True
        return False

    def is_quarantined(self, peer: int) -> bool:
        return peer in self.quarantined

    def permitted(self, peers: List[int]) -> List[int]:
        """Filter a routing candidate list down to non-quarantined peers."""
        return [p for p in peers if p not in self.quarantined]

    @property
    def total_rejections(self) -> int:
        return sum(self.rejections.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary for verdicts and reports."""
        return {
            "rejections": dict(sorted(self.rejections.items())),
            "total_rejections": self.total_rejections,
            "scores": {str(k): v for k, v in sorted(self.scores.items())},
            "quarantined": sorted(self.quarantined),
        }
