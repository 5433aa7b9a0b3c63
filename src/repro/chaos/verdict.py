"""End-of-run adversary verdict: did safety and liveness hold under attack?

**Safety** — no honest node ever *kept* anything an admission check
should have stopped:

* every honest chain replays from genesis through a fresh
  :class:`~repro.core.blockchain.Blockchain`, re-verifying structure,
  linkage, and the PoS claims (Eq. 7–9) of every block — a forged block
  that slipped in would fail the replay;
* all honest chains share the genesis, and no honest chain diverges
  from the longest honest chain at or below a checkpoint.  Divergence
  *above* the checkpoint horizon is protocol-legal — strictly-longer
  fork resolution lets equal-length competing tips coexist until the
  next block, and a churned node may briefly hold a stale fork — so
  only checkpoint-depth divergence (a rewrite an honest node must
  refuse) counts against safety;
* no honest node quarantined another honest node — the misbehavior
  scoring must never false-positive on honest traffic.

**Liveness** — the honest network kept making progress despite the
adversaries: the honest common prefix grew past a floor, and gap/chain
recovery latencies stayed bounded.

The verdict is a pure function of end-of-run node state — no wall clock,
no randomness — so a seeded scenario reproduces it bit for bit.  ``repro
reproduce`` reads it for its adversary claims
(:func:`repro.sim.scenarios.adversary_claims`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.core.blockchain import Blockchain
from repro.core.errors import ValidationError

#: Liveness warning floor: the honest common prefix should reach at
#: least this fraction of the expected block count (duration / t0).
GROWTH_FLOOR_FRACTION = 0.2

#: Recovery latency bound, in block intervals.
RECOVERY_BOUND_INTERVALS = 10.0


def _hash_at(chain: Any, index: int) -> Any:
    """Block hash at ``index``: the body if retained, else a pinned
    checkpoint record; None when the height is not comparable at all."""
    if chain.has_block(index):
        return chain.block_at(index).current_hash
    record = chain.checkpoints.get(index)
    return record.block_hash if record is not None else None


def _divergence_height(chain: Any, reference: Any) -> Any:
    """First height where ``chain`` leaves ``reference``; None if a prefix.

    Valid chains hash-link, so equal hashes at the highest comparable
    height of the shared range imply the whole prefix matches; otherwise
    a linear scan finds the first differing block (chains are tens of
    blocks long).  Pruned bodies compare through their pinned checkpoint
    hashes; heights with neither a body nor a pin on one side are
    skipped — agreement at any later height covers them by linkage.
    """
    top = min(chain.height, reference.height)
    for index in range(top, 0, -1):
        ours = _hash_at(chain, index)
        theirs = _hash_at(reference, index)
        if ours is None or theirs is None:
            continue
        if ours == theirs:
            return None
        break
    else:
        return None  # no mutually comparable height in the shared range
    for index in range(1, top + 1):
        ours = _hash_at(chain, index)
        theirs = _hash_at(reference, index)
        if ours is None or theirs is None:
            continue
        if ours != theirs:
            return index
    return top


def _chain_replays(node: Any) -> bool:
    """Re-validate a node's whole chain (structure + PoS).

    Unpruned chains replay from genesis through a fresh
    :class:`Blockchain`.  A pruned chain replays from its anchor
    instead: the pinned checkpoint at the retained floor must match the
    anchor body and the anchor state's ledger digest (the record is what
    the pruned prefix collapsed into), then every retained body above it
    re-validates as usual.  Every block goes through ``validate_child``:
    the live chains hold the ledgers of every prefix they retain, so a
    shared entry would otherwise stand in for the PoS verdict of the
    very block under audit.
    """
    chain = node.chain
    blocks = list(chain.blocks)
    first = chain.first_retained_index
    if first == 0:
        replica = Blockchain(
            chain.node_ids, node.config, chain.address_of, genesis=blocks[0]
        )
    else:
        anchor = chain._anchor_state
        record = chain.checkpoints.get(first)
        if anchor is None or record is None:
            return False  # pruned without an anchor/pin: unverifiable
        if (
            record.block_hash != blocks[0].current_hash
            or record.ledger_digest != anchor.ledger_digest()
        ):
            return False
        replica = chain._replica_at(first)
    for block in blocks[1:]:
        try:
            replica.validate_child(block)
            replica.append_block(block)
        except ValidationError:
            return False
    return True


def compute_verdict(
    nodes: Mapping[int, Any],
    adversary_ids: Iterable[int],
    t0: float,
    duration_seconds: float,
) -> Dict[str, Any]:
    """Safety/liveness verdict over a finished run.

    ``nodes`` maps node id → :class:`~repro.core.node.EdgeNode`, the
    planted ``adversary_ids`` included — they are skipped for
    invariants, aggregated for actions.  ``t0`` is the expected block
    interval and ``duration_seconds`` the run's length; together they
    set the growth floor and the recovery bound.
    """
    adversary_ids = set(adversary_ids)
    honest = {
        node_id: node
        for node_id, node in sorted(nodes.items())
        if node_id not in adversary_ids
    }

    # --- safety -----------------------------------------------------------------
    invalid_chains = sorted(
        node_id for node_id, node in honest.items() if not _chain_replays(node)
    )
    # A pruned genesis contributes no hash here; linkage through the
    # divergence scan still ties the pruned prefix to the reference.
    genesis_hashes = {
        node.chain.block_at(0).current_hash
        for node in honest.values()
        if node.chain.has_block(0)
    }
    genesis_consistent = len(genesis_hashes) <= 1
    reference = max(honest.values(), key=lambda n: (n.chain.height, -n.node_id))
    divergences: Dict[int, int] = {}
    if genesis_consistent:
        for node_id, node in honest.items():
            if node is reference:
                continue
            diverged_at = _divergence_height(node.chain, reference.chain)
            if diverged_at is not None:
                divergences[node_id] = diverged_at
    checkpoint_violations = sorted(
        node_id
        for node_id, diverged_at in divergences.items()
        if diverged_at
        <= max(
            honest[node_id].chain.last_checkpoint(),
            reference.chain.last_checkpoint(),
        )
    )
    honest_quarantined: List[Tuple[int, int]] = sorted(
        (observer_id, peer)
        for observer_id, node in honest.items()
        for peer in node.admission.quarantined
        if peer not in adversary_ids
    )
    safety_ok = (
        not invalid_chains
        and genesis_consistent
        and not checkpoint_violations
        and not honest_quarantined
    )

    # --- liveness ---------------------------------------------------------------
    if genesis_consistent:
        common_prefix = min(
            (
                divergences[node_id] - 1
                if node_id in divergences
                else min(node.chain.height, reference.chain.height)
            )
            for node_id, node in honest.items()
        )
    else:
        common_prefix = 0
    growth_floor = max(1, int(GROWTH_FLOOR_FRACTION * duration_seconds / t0))
    recovery_bound = RECOVERY_BOUND_INTERVALS * t0
    recoveries = [
        duration
        for node in honest.values()
        for duration in node.sync.completed_durations
    ]
    max_recovery = max(recoveries) if recoveries else None
    recovering_at_end = sorted(
        node_id for node_id, node in honest.items() if node.sync.recovering
    )
    issues: List[str] = []
    if common_prefix == 0:
        issues.append("honest common prefix never grew")
    elif common_prefix < growth_floor:
        issues.append(
            f"honest common prefix {common_prefix} below floor {growth_floor}"
        )
    if max_recovery is not None and max_recovery > recovery_bound:
        issues.append(
            f"recovery took {max_recovery:.0f}s "
            f"(bound {recovery_bound:.0f}s)"
        )
    if recovering_at_end:
        issues.append(f"nodes still recovering at end: {recovering_at_end}")
    liveness_ok = not issues

    # --- aggregates -------------------------------------------------------------
    rejections: Dict[str, int] = {}
    quarantined_peers: set = set()
    for node in honest.values():
        for reason, count in node.admission.rejections.items():
            rejections[reason] = rejections.get(reason, 0) + count
        quarantined_peers.update(node.admission.quarantined)
    chaos_actions = {
        str(node_id): getattr(nodes[node_id], "chaos_actions", 0)
        for node_id in sorted(adversary_ids)
    }

    if not safety_ok or common_prefix == 0:
        status = "critical"
    elif not liveness_ok:
        status = "warning"
    else:
        status = "ok"

    return {
        "status": status,
        "safety": {
            "ok": safety_ok,
            "invalid_chains": invalid_chains,
            "genesis_consistent": genesis_consistent,
            "checkpoint_violations": checkpoint_violations,
            "honest_quarantined": [list(pair) for pair in honest_quarantined],
        },
        "liveness": {
            "ok": liveness_ok,
            "common_prefix_height": common_prefix,
            "growth_floor": growth_floor,
            "issues": issues,
        },
        "admission": {
            "rejections": dict(sorted(rejections.items())),
            "total_rejections": sum(rejections.values()),
            "quarantined_peers": sorted(quarantined_peers),
        },
        "honest_height": reference.chain.height,
        "honest_digest": reference.chain.chain_digest(),
        "chaos_actions": chaos_actions,
    }
