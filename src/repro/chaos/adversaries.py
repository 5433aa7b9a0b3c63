"""Byzantine adversary behaviors, as EdgeNode subclasses.

Each adversary is an otherwise-honest :class:`~repro.core.node.EdgeNode`
that misbehaves in exactly one way whenever it is online — isolating
which hardening path each scenario exercises.  A class is planted as is
through either fabric's ``node_classes`` hook
(:attr:`~repro.sim.runner.ExperimentSpec.node_classes`,
:attr:`~repro.net.harness.LiveSpec.node_classes`); ``repro reproduce``
plants them for its adversary claims
(:func:`repro.sim.scenarios.adversaries`).

Determinism: adversaries draw no randomness of their own.  Every forged
payload is a pure function of the node's chain state and a local
counter, and every action is scheduled on the node's engine — so a
seeded scenario replays bit-identically, which is what lets the chaos
claims pin verdicts and honest-chain digests.

All of these behaviors use only surfaces present on both fabrics
(``network.send/broadcast``, ``engine.call_at/schedule``, chain state),
so the same adversary class runs under the simulator and over real
sockets.
"""

from __future__ import annotations

import dataclasses

from repro.core.block import Block
from repro.core.messages import (
    CATEGORY_BLOCK,
    CATEGORY_BLOCK_RECOVERY,
    CATEGORY_CHAIN_SYNC,
    CATEGORY_METADATA,
    BlockAnnounce,
    BlockRequest,
    BlockResponse,
    ChainRequest,
    ChainResponse,
    MetadataAnnounce,
)
from repro.core.metadata import MetadataItem
from repro.core.node import EdgeNode


class ChaosNode(EdgeNode):
    """Base adversary: the honest protocol plus a count of forged sends."""

    #: Forged payloads sent (for tests and scenario summaries).
    chaos_actions: int = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chaos_actions = 0

    def _chaos_targets(self) -> list:
        return [
            node
            for node in self.topology.neighbors(self.node_id)
            if self.network.is_online(node)
        ]


class EquivocatorNode(ChaosNode):
    """Mines honestly, then announces a *second* block at the same height.

    The twin differs only in timestamp (hash recomputed), so it is a
    well-formed competitor from the same miner at the same height — the
    nothing-at-stake equivocation the
    :class:`~repro.core.admission.EquivocationTracker` exists to catch.
    Receivers keep whichever twin arrived first and charge the miner the
    equivocation weight, which quarantines it immediately.
    """

    def _try_mine(self, expected_parent_hash: str) -> None:
        mined_before = self.counters.blocks_mined
        super()._try_mine(expected_parent_hash)
        if self.counters.blocks_mined == mined_before or not self.online:
            return
        original = self.chain.tip
        twin = dataclasses.replace(
            original, timestamp=original.timestamp + 0.25, current_hash=""
        )
        self.chaos_actions += 1
        announce = BlockAnnounce(twin)
        self.network.broadcast(
            self.node_id, announce, announce.wire_size(), CATEGORY_BLOCK
        )


class InvalidBlockSpammerNode(ChaosNode):
    """Periodically broadcasts forged blocks, cycling through variants.

    Variant cycle (one per block interval while online):

    0. **bad content hash** — ``current_hash`` does not commit to the
       block (structural ``bad_hash`` rejection);
    1. **forged PoS** — valid structure and linkage, but the ``pos_hash``
       chain is broken, so Eq. 7/9 re-verification fails
       (``bad_pos`` via :class:`~repro.core.errors.ConsensusError`);
    2. **forged miner address** — miner id claims another node's address
       (``bad_miner``);
    3. **foreign parent** — next-height block on an unknown parent hash,
       driving the fork-resolution path (the receiver's chain request is
       answered with the spammer's honest chain, which fails adoption).
    """

    def start(self) -> None:
        super().start()
        self.engine.call_at(self.engine.now, self._chaos_spam)

    def _forged_block(self, variant: int) -> Block:
        parent = self.chain.tip
        base = self._build_block(parent)
        if variant == 0:
            return dataclasses.replace(base, current_hash="00" * 32)
        if variant == 1:
            return dataclasses.replace(base, pos_hash="ab" * 32, current_hash="")
        if variant == 2:
            other = next(
                address
                for node, address in sorted(self.chain.address_of.items())
                if node != self.node_id
            )
            return dataclasses.replace(base, miner_address=other, current_hash="")
        return dataclasses.replace(base, previous_hash="ff" * 32, current_hash="")

    def _chaos_spam(self) -> None:
        if self.online:
            block = self._forged_block(self.chaos_actions % 4)
            self.chaos_actions += 1
            announce = BlockAnnounce(block)
            self.network.broadcast(
                self.node_id, announce, announce.wire_size(), CATEGORY_BLOCK
            )
        self.engine.schedule(
            self.config.expected_block_interval, self._chaos_spam
        )


class SyncPoisonerNode(ChaosNode):
    """Answers recovery requests with tampered or truncated payloads.

    Gap-recovery responses alternate between a broken ``pos_hash`` (the
    block survives structural checks, enters the sync buffer, and fails
    consensus re-verification at drain time — exercising the
    delivered-by attribution) and a garbage content hash (dropped at the
    response boundary).  Whole-chain requests are served a chain with the
    genesis cut off, which can never be adopted.
    """

    def _on_block_request(self, source: int, request: BlockRequest) -> None:
        if not self.online:
            super()._on_block_request(source, request)
            return
        poisoned = []
        for index in request.indices:
            block = self.storage.get_block(index)
            if block is None:
                continue
            if self.chaos_actions % 2 == 0:
                block = dataclasses.replace(
                    block, pos_hash="ab" * 32, current_hash=""
                )
            else:
                block = dataclasses.replace(block, current_hash="00" * 32)
            self.chaos_actions += 1
            poisoned.append(block)
        if poisoned:
            response = BlockResponse(blocks=tuple(poisoned))
            self.network.send(
                self.node_id,
                request.origin,
                response,
                response.wire_size(),
                CATEGORY_BLOCK_RECOVERY,
            )

    def _on_chain_request(self, source: int, request: ChainRequest) -> None:
        if not self.online or len(self.chain.blocks) < 2:
            super()._on_chain_request(source, request)
            return
        self.chaos_actions += 1
        truncated = ChainResponse(blocks=tuple(self.chain.blocks[1:]))
        self.network.send(
            self.node_id,
            request.origin,
            truncated,
            truncated.wire_size(),
            CATEGORY_CHAIN_SYNC,
        )


class MetadataTampererNode(ChaosNode):
    """Rebroadcasts received metadata with forged fields.

    Alternates between a forged producer address (caught by the roster
    check on every node) and a tampered ``data_type`` (breaks the
    producer's signature — caught when ``verify_metadata_signatures`` is
    enabled, which chaos scenarios turn on).  The original item is still
    processed honestly, so the tamperer stays subtle.
    """

    def _on_metadata(self, source: int, item: MetadataItem) -> None:
        super()._on_metadata(source, item)
        if (
            not self.online
            or item.producer == self.node_id
            or item.producer_address != self.chain.address_of.get(item.producer)
        ):
            return  # its own item, or another adversary's forgery
        if self.chaos_actions % 2 == 0:
            forged = dataclasses.replace(item, producer_address="f0" * 20)
        else:
            forged = dataclasses.replace(item, data_type="Forged/Tampered")
        self.chaos_actions += 1
        announce = MetadataAnnounce(forged)
        self.network.broadcast(
            self.node_id, announce, announce.wire_size(), CATEGORY_METADATA
        )


class FlooderNode(ChaosNode):
    """Hammers neighbors with oversized and repeated recovery requests.

    Every tick it sends each neighbor a block request far over the
    honest cardinality cap plus a whole-chain request — both land as
    ``flood`` rejections (weight 1), so a sustained storm quarantines
    the flooder while a single burst would not.
    """

    def start(self) -> None:
        super().start()
        self.engine.call_at(self.engine.now, self._chaos_flood)

    def _chaos_flood(self) -> None:
        if self.online:
            indices = tuple(range(1, 66))  # one past the honest cardinality cap
            for target in self._chaos_targets():
                request = BlockRequest(indices=indices, origin=self.node_id)
                self.network.send(
                    self.node_id,
                    target,
                    request,
                    request.wire_size(),
                    CATEGORY_BLOCK_RECOVERY,
                )
                chain_request = ChainRequest(origin=self.node_id)
                self.network.send(
                    self.node_id,
                    target,
                    chain_request,
                    chain_request.wire_size(),
                    CATEGORY_CHAIN_SYNC,
                )
                self.chaos_actions += 2
        self.engine.schedule(
            self.config.expected_block_interval / 4.0, self._chaos_flood
        )


#: Registry of the planted behaviours, by the name ``repro reproduce`` reports.
ADVERSARY_TYPES = {
    "equivocator": EquivocatorNode,
    "spammer": InvalidBlockSpammerNode,
    "poisoner": SyncPoisonerNode,
    "tamperer": MetadataTampererNode,
    "flooder": FlooderNode,
}
