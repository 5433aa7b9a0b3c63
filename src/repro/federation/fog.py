"""The fog tier: super-peers bridging edge clusters.

Super-peers are the federation's backhaul (ElfStore's fog layer): each
edge cluster *homes* to one super-peer, which periodically distills the
cluster's public state into a :class:`ClusterSummary` and anti-entropy
gossips its directory replica to a seeded-random partner.  Cross-cluster
traffic rides the directory:

* **lookup** — a cluster that cannot resolve a data id locally asks its
  home super-peer; the peer shortlists candidate clusters by bloom and
  verifies against each candidate's reference chain (false positives
  cost a probe, not a wrong answer).
* **migration** — a successful lookup may pull the item *into* the
  requesting cluster: the origin's gateway node re-signs the metadata
  under its local identity (:meth:`EdgeNode.adopt_foreign_metadata`),
  after which the target cluster's own miner places it through UFL
  allocation and normal dissemination replicates the payload.

The tier does not trust its own peers (DESIGN.md §16).  Every summary is
**attested**: the home cluster's gateway signs the canonical summary body
(:meth:`ClusterSummary.attestation_payload`), receivers verify the
signature against the known gateway address before merging, and lookups
cross-check a served entry's checkpoint digest against the candidate's
actual chain.  Misbehavior — bad attestations, digest mismatches on
probe, home entries left stale beyond the freshness horizon, rejected
migration pushes — charges the responsible super-peer on a shared
:class:`FogAdmission` ledger; past the threshold the peer is
**quarantined** and its home clusters **re-home** to a deterministic
sibling that rebuilds their directory entries from scratch.

All scheduling uses the shared engine.  Gossip partners come from each
peer's own seeded ``random.Random``, keeping replay deterministic; on honest runs
none of the defenses draws randomness or schedules events, so honest
digests stay bit-identical to a defense-free tier.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.account import derive_address
from repro.core.admission import FOREIGN_METADATA
from repro.core.metadata import MetadataItem
from repro.crypto.keys import PublicKey
from repro.crypto.signature import Signature, verify
from repro.federation.directory import BloomFilter, ClusterSummary, DirectoryReplica
from repro.federation.spec import FederationSpec, derived_seed
from repro.obs import runtime as _obs
from repro.simnet.engine import EventEngine, PeriodicTask

#: A lookup that races ahead of directory refresh retries this often...
LOOKUP_RETRY_SECONDS = 45.0

#: ...at most this many times before counting as failed.
LOOKUP_MAX_RETRIES = 6

#: After the primary peer's retries exhaust, a secondary super-peer is
#: probed at most this many more times (jittered) before giving up.
LOOKUP_FALLBACK_RETRIES = 3

# -- fog misbehavior reasons ------------------------------------------------------

#: A gossiped summary failed gateway-attestation verification.
FOG_BAD_ATTESTATION = "bad_attestation"
#: A served directory entry contradicts the candidate's actual chain.
FOG_DIGEST_MISMATCH = "digest_mismatch"
#: A peer's home-cluster entry aged past the freshness horizon.
FOG_STALE_HOME = "stale_home"
#: A pushed migration was rejected by the target gateway's admission.
FOG_BAD_MIGRATION = "bad_migration"

#: Forged content is unambiguous and weighs heavily; staleness accrues —
#: one slow round never quarantines a peer, a sustained blackout does.
FOG_REASON_WEIGHTS: Dict[str, float] = {
    FOG_BAD_ATTESTATION: 4.0,
    FOG_DIGEST_MISMATCH: 4.0,
    FOG_STALE_HOME: 2.0,
    FOG_BAD_MIGRATION: 4.0,
}

#: Accumulated misbehavior score past which a super-peer is quarantined.
FOG_QUARANTINE_THRESHOLD = 8.0

#: A home entry older than this multiple of one full publication cycle
#: (refresh + worst-case gossip walk) charges the responsible home peer.
FOG_STALE_CHARGE_FACTOR = 3.0


@dataclass
class FogCounters:
    """Cumulative fog-tier statistics (feed the federation monitors)."""

    refreshes: int = 0
    gossip_rounds: int = 0
    gossip_entries_adopted: int = 0
    lookups_ok: int = 0
    lookups_failed: int = 0
    migrations: int = 0
    #: Candidate probes where the bloom shortlisted a cluster that did
    #: not hold the item (honest ~1 % false positives, or a poisoned bloom).
    bloom_fp_probes: int = 0
    #: Served entries rejected at lookup time: checkpoint digest
    #: contradicted the candidate's actual chain.
    verify_rejected: int = 0
    #: Gossiped summaries rejected for a bad gateway attestation.
    attestation_rejected: int = 0
    #: Migrations the target gateway's admission refused.
    migrations_rejected: int = 0
    #: Lookups that fell back to a secondary super-peer.
    lookup_fallbacks: int = 0
    #: Super-peers quarantined / clusters re-homed over the run.
    quarantines: int = 0
    rehomed_clusters: int = 0


@dataclass
class FogAdmission:
    """Shared misbehavior ledger over the fog tier's super-peers.

    The fog analogue of :class:`repro.core.admission.AdmissionControl`:
    every detected violation charges the responsible peer a weighted
    score; past ``quarantine_threshold`` the peer is quarantined —
    excluded from gossip, lookups, and homing.  Deterministic and
    side-effect-free: charges draw no randomness and schedule nothing.
    """

    quarantine_threshold: float = FOG_QUARANTINE_THRESHOLD
    rejections: Dict[str, int] = field(default_factory=dict)
    scores: Dict[int, float] = field(default_factory=dict)
    quarantined: Set[int] = field(default_factory=set)
    quarantined_at: Dict[int, float] = field(default_factory=dict)

    def charge(self, peer_id: int, reason: str, now: float) -> bool:
        """Charge ``peer_id``; True when this newly quarantines it."""
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        _obs.add("fog.charges")
        _obs.add(f"fog.charges.{reason}")
        score = self.scores.get(peer_id, 0.0) + FOG_REASON_WEIGHTS.get(reason, 4.0)
        self.scores[peer_id] = score
        if (
            peer_id not in self.quarantined
            and score >= self.quarantine_threshold
        ):
            self.quarantined.add(peer_id)
            self.quarantined_at[peer_id] = now
            return True
        return False

    def is_quarantined(self, peer_id: int) -> bool:
        return peer_id in self.quarantined

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary for verdicts and reports."""
        return {
            "rejections": dict(sorted(self.rejections.items())),
            "scores": {str(k): v for k, v in sorted(self.scores.items())},
            "quarantined": sorted(self.quarantined),
            "quarantined_at": {
                str(k): v for k, v in sorted(self.quarantined_at.items())
            },
        }


class SuperPeer:
    """One fog node: a directory replica plus its home clusters."""

    def __init__(self, peer_id: int, fog: "FogTier", rng: random.Random):
        self.peer_id = peer_id
        self.fog = fog
        self.rng = rng
        self.replica = DirectoryReplica()
        self.home_clusters: List[int] = []
        self._versions: Dict[int, int] = {}

    def start(self) -> None:
        """Hook armed at fog start (adversary subclasses schedule here)."""

    def refresh_home(self) -> None:
        """Re-summarise every home cluster into the local replica."""
        if self.fog.admission.is_quarantined(self.peer_id):
            return
        now = self.fog.engine.now
        for cluster_id in list(self.home_clusters):
            version = self._versions.get(cluster_id, 0) + 1
            self._versions[cluster_id] = version
            summary = self.fog.build_summary(cluster_id, version, now)
            self.replica.merge(summary)
            self.fog.counters.refreshes += 1
        self._flag_stale_homes(now)

    def _flag_stale_homes(self, now: float) -> None:
        """Charge home peers whose entries here aged past the horizon.

        The only signal a withholding peer leaves is silence: its home
        clusters' entries in *other* replicas stop updating.  A never-
        heard-of cluster ages from fog start.  On honest runs every
        entry is refreshed and gossiped well inside the horizon, so no
        charge is ever recorded (the determinism tests pin that).
        """
        fog = self.fog
        if fog.started_at is None:
            return
        horizon = fog.stale_entry_after()
        for cluster_id in range(fog.spec.cluster_count):
            home = fog.home_of[cluster_id]
            if home == self.peer_id or fog.admission.is_quarantined(home):
                continue
            entry = self.replica.entries.get(cluster_id)
            freshest = fog.started_at if entry is None else entry.updated_at
            if now - freshest > horizon:
                fog.charge(home, FOG_STALE_HOME)

    def gossip(self) -> None:
        """Push the replica to one seeded-random partner (anti-entropy)."""
        fog = self.fog
        if fog.admission.is_quarantined(self.peer_id):
            return
        others = [
            p
            for p in fog.peers
            if p.peer_id != self.peer_id
            and not fog.admission.is_quarantined(p.peer_id)
        ]
        if not others or not self.replica.entries:
            return
        partner = others[self.rng.randrange(len(others))]
        payload = list(self.replica.entries.values())
        fog.engine.schedule(
            fog.spec.fog_latency_seconds,
            partner.receive_directory,
            payload,
            self.peer_id,
        )
        fog.counters.gossip_rounds += 1

    def receive_directory(
        self, summaries: List[ClusterSummary], sender: Optional[int] = None
    ) -> None:
        fog = self.fog
        if sender is not None and fog.admission.is_quarantined(sender):
            return
        accepted: List[ClusterSummary] = []
        for summary in summaries:
            if fog.summary_attested(summary):
                accepted.append(summary)
                continue
            fog.counters.attestation_rejected += 1
            _obs.add("fog.attestation_rejected")
            if sender is not None:
                fog.charge(sender, FOG_BAD_ATTESTATION)
        fog.counters.gossip_entries_adopted += self.replica.merge_all(accepted)


class FogTier:
    """All super-peers plus the cross-cluster routing they provide."""

    def __init__(self, engine: EventEngine, spec: FederationSpec, domains: List[Any]):
        self.engine = engine
        self.spec = spec
        self.domains = domains  # List[ClusterDomain]; duck-typed to avoid a cycle
        self.counters = FogCounters()
        self.admission = FogAdmission()
        self.peers: List[SuperPeer] = []
        for peer_id in range(spec.super_peer_count):
            peer_seed = derived_seed(spec.seed, "fog-peer", peer_id)
            peer_class = SuperPeer
            if spec.fog_peer_classes:
                peer_class = spec.fog_peer_classes.get(peer_id, SuperPeer)
            self.peers.append(peer_class(peer_id, self, random.Random(peer_seed)))
        #: Dynamic cluster → home-peer map; starts at the spec's static
        #: assignment and moves when a quarantined peer's clusters fail over.
        self.home_of: Dict[int, int] = {
            cluster_id: spec.home_peer_of(cluster_id)
            for cluster_id in range(spec.cluster_count)
        }
        for cluster_id in range(spec.cluster_count):
            self.peers[self.home_of[cluster_id]].home_clusters.append(cluster_id)
        #: Clusters that failed over, cluster id → new home peer.
        self.rehomed: Dict[int, int] = {}
        #: Gateway accounts attest summaries; the address roster is what
        #: receivers verify attestor keys against.
        self._gateway_accounts = {
            domain.cluster_id: domain.cluster.accounts[
                min(domain.cluster.node_ids)
            ]
            for domain in domains
        }
        #: Pure-Python ECDSA is expensive and entries are re-gossiped many
        #: times; verification is memoised on (body, key, signature).
        self._attestation_cache: Dict[Tuple[bytes, str, str], bool] = {}
        self.started_at: Optional[float] = None
        self._tasks: List[PeriodicTask] = []
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Arm refresh + gossip schedules (called at formation time)."""
        if self._started:
            return
        self._started = True
        self.started_at = self.engine.now
        for peer in self.peers:
            # Staggered deterministic start offsets keep peers from
            # refreshing/gossiping in lockstep on the same tick.
            peer.refresh_home()
            self._tasks.append(
                PeriodicTask(
                    self.engine,
                    self.spec.directory_refresh_seconds,
                    peer.refresh_home,
                    start_delay=self.spec.directory_refresh_seconds
                    + 0.1 * peer.peer_id,
                )
            )
            self._tasks.append(
                PeriodicTask(
                    self.engine,
                    self.spec.gossip_period_seconds,
                    peer.gossip,
                    start_delay=self.spec.gossip_period_seconds * 0.5
                    + 0.1 * peer.peer_id,
                )
            )
        for peer in self.peers:
            peer.start()

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()

    # -- summaries ---------------------------------------------------------------

    def build_summary(
        self, cluster_id: int, version: int, now: float
    ) -> ClusterSummary:
        """Distill one cluster's public state into an attested entry."""
        domain = self.domains[cluster_id]
        cluster = domain.cluster
        chain = cluster.longest_chain_node().chain
        data_ids = [
            item.data_id for block in chain.blocks for item in block.metadata_items
        ]
        if chain.first_retained_index:
            # Pruned prefix: cold bodies can't be walked, but the state's
            # metadata index still names every unexpired item wherever it
            # was packed — those must stay advertised for lookups.
            hot = set(data_ids)
            data_ids.extend(
                data_id
                for data_id in chain.state.metadata_index
                if data_id not in hot
            )
        bloom = BloomFilter.sized_for(max(len(data_ids), 64))
        for data_id in data_ids:
            bloom.add(data_id)
        checkpoint_index = chain.last_checkpoint()
        capacity = float(cluster.config.storage_capacity)
        used = [cluster.nodes[n].storage.used_slots() for n in cluster.node_ids]
        total_capacity = capacity * len(used)
        fairness_max = 0.0
        for slots in used:
            clamped = min(float(slots), capacity)
            margin = capacity - clamped
            fairness_max = max(
                fairness_max, math.inf if margin <= 0 else clamped / margin
            )
        state = chain.state
        tokens = sorted((state.tokens(node) for node in state.node_ids), reverse=True)
        total_tokens = sum(tokens)
        leader = None
        term = 0
        if domain.raft is not None:
            leader_node = domain.raft.leader()
            if leader_node is not None:
                leader = leader_node.node_id
                term = leader_node.current_term
        # The retention horizon never passes the newest checkpoint, so the
        # body is normally retained; the pinned record covers a chain that
        # just pruned flush to its checkpoint.
        if chain.has_block(checkpoint_index):
            checkpoint_digest = chain.block_at(checkpoint_index).current_hash
        else:
            pinned = chain.checkpoints.get(checkpoint_index)
            checkpoint_digest = pinned.block_hash if pinned is not None else ""
        unsigned = ClusterSummary(
            cluster_id=cluster_id,
            version=version,
            updated_at=now,
            height=chain.height,
            chain_digest=chain.chain_digest(),
            checkpoint_height=checkpoint_index,
            checkpoint_digest=checkpoint_digest,
            item_count=len(data_ids),
            bloom=bloom,
            stake_top_share=(
                sum(tokens[:3]) / total_tokens if total_tokens > 0 else 0.0
            ),
            storage_used_fraction=(
                sum(used) / total_capacity if total_capacity > 0 else 0.0
            ),
            free_slots=max(0, int(total_capacity) - sum(used)),
            fairness_max=fairness_max,
            raft_leader=leader,
            raft_term=term,
        )
        gateway = self._gateway_accounts[cluster_id]
        signature = gateway.sign(unsigned.attestation_payload())
        from dataclasses import replace as _replace

        return _replace(
            unsigned,
            attestor_public_key_hex=gateway.public_key.hex(),
            attestation_hex=signature.hex(),
        )

    def summary_attested(self, summary: ClusterSummary) -> bool:
        """Verify a summary's gateway attestation.

        The attestor key must derive to the known gateway address of the
        summary's cluster — a forger cannot substitute its own key — and
        the signature must verify over the canonical body.  Pure
        computation: no randomness, no scheduling (digest-neutral).
        """
        gateway = self._gateway_accounts.get(summary.cluster_id)
        if gateway is None:
            return False
        payload = summary.attestation_payload()
        key = (payload, summary.attestor_public_key_hex, summary.attestation_hex)
        cached = self._attestation_cache.get(key)
        if cached is not None:
            return cached
        try:
            public = PublicKey.from_hex(summary.attestor_public_key_hex)
            signature = Signature.from_hex(summary.attestation_hex)
        except ValueError:
            self._attestation_cache[key] = False
            return False
        valid = derive_address(public) == gateway.address and verify(
            public, payload, signature
        )
        self._attestation_cache[key] = valid
        return valid

    def _entry_matches_chain(self, entry: ClusterSummary, chain: Any) -> bool:
        """Cross-check a directory entry against the chain it summarises.

        Chains are append-only below their checkpoints, so an honest
        entry's checkpoint digest always matches — however stale the
        entry is.  A claimed checkpoint past the chain's actual height is
        a forgery outright; a pruned, unpinned height is unverifiable and
        passes (the shortlist probe still decides the lookup).
        """
        if not entry.checkpoint_digest:
            return True
        height = entry.checkpoint_height
        if height > chain.height:
            return False
        if chain.has_block(height):
            return chain.block_at(height).current_hash == entry.checkpoint_digest
        pinned = chain.checkpoints.get(height)
        if pinned is None:
            return True
        return pinned.block_hash == entry.checkpoint_digest

    # -- misbehavior + failover ---------------------------------------------------

    def stale_entry_after(self) -> float:
        """Freshness horizon: one full publication cycle, with margin.

        A fresh entry reaches every replica within one refresh period
        plus a worst-case gossip walk across the other peers; anything
        older than :data:`FOG_STALE_CHARGE_FACTOR` cycles means the home
        peer stopped publishing.
        """
        walk = self.spec.gossip_period_seconds * max(
            1, self.spec.super_peer_count - 1
        )
        return FOG_STALE_CHARGE_FACTOR * (
            self.spec.directory_refresh_seconds + walk
        )

    def charge(self, peer_id: int, reason: str) -> None:
        """Charge a super-peer; quarantine + re-home past the threshold."""
        if self.admission.is_quarantined(peer_id):
            return
        if self.admission.charge(peer_id, reason, self.engine.now):
            self._quarantine(peer_id)

    def _quarantine(self, peer_id: int) -> None:
        """Cut a peer out of the tier and fail its home clusters over.

        Each orphaned cluster re-homes to the first non-quarantined
        sibling in ``(home + 1) % P`` order — deterministic, so every
        replay agrees — and the new home rebuilds its directory entry
        from scratch at a version past anything it has seen, so the
        fresh honest entry wins the monotone merge everywhere.
        """
        self.counters.quarantines += 1
        _obs.add("fog.quarantined")
        peer = self.peers[peer_id]
        rebuilt: Set[int] = set()
        for cluster_id in list(peer.home_clusters):
            target = self.failover_peer_for(cluster_id)
            if target is None:
                continue  # no honest peer left; entries stay orphaned
            peer.home_clusters.remove(cluster_id)
            target.home_clusters.append(cluster_id)
            self.home_of[cluster_id] = target.peer_id
            self.rehomed[cluster_id] = target.peer_id
            seen = target.replica.entries.get(cluster_id)
            floor = max(
                target._versions.get(cluster_id, 0),
                0 if seen is None else seen.version,
            )
            target._versions[cluster_id] = floor
            self.counters.rehomed_clusters += 1
            _obs.add("fog.rehomed")
            rebuilt.add(target.peer_id)
        for target_id in sorted(rebuilt):
            self.peers[target_id].refresh_home()

    def failover_peer_for(self, cluster_id: int) -> Optional[SuperPeer]:
        """The deterministic sibling a cluster fails over to (or None)."""
        current = self.home_of[cluster_id]
        count = self.spec.super_peer_count
        for offset in range(1, count):
            candidate = (current + offset) % count
            if not self.admission.is_quarantined(candidate):
                return self.peers[candidate]
        return None

    def fallback_peer_for(self, origin_cluster: int) -> Optional[SuperPeer]:
        """A secondary super-peer for lookups the home peer can't serve."""
        primary = self.home_of[origin_cluster]
        count = self.spec.super_peer_count
        for offset in range(1, count):
            candidate = (primary + offset) % count
            if not self.admission.is_quarantined(candidate):
                return self.peers[candidate]
        return None

    # -- cross-cluster routing ----------------------------------------------------

    def directory_staleness(self, now: float) -> float:
        """Worst entry age across non-quarantined replicas (monitor input).

        Quarantined peers are cut off by design — their frozen replicas
        age without bound and must not page the operator.  ``default=0``
        keeps a tier with no (active) peers from crashing the probe.
        """
        return max(
            (
                peer.replica.staleness(now, self.spec.cluster_count)
                for peer in self.peers
                if not self.admission.is_quarantined(peer.peer_id)
            ),
            default=0.0,
        )

    def directory_divergence(self, exclude_clusters: Iterable[int] = ()) -> int:
        """Entries in active replicas that contradict their cluster's chain.

        Counts ``(peer, cluster)`` pairs whose entry fails the checkpoint
        cross-check — the directory claiming something the summarised
        chain denies.  Zero on honest runs (entries are only ever built
        from the chains themselves); positive while a poisoned or
        inflated entry survives in an active replica.
        ``exclude_clusters`` skips clusters whose chains cannot be held
        to the append-only promise (sacrificed byzantine clusters).
        """
        skip = set(exclude_clusters)
        divergent = 0
        for peer in self.peers:
            if self.admission.is_quarantined(peer.peer_id):
                continue
            for cluster_id, entry in peer.replica.entries.items():
                if cluster_id in skip:
                    continue
                chain = (
                    self.domains[cluster_id].cluster.longest_chain_node().chain
                )
                if not self._entry_matches_chain(entry, chain):
                    divergent += 1
        return divergent

    def directory_digest(self) -> str:
        """Deterministic digest over all replicas (determinism checks)."""
        from repro.crypto.hashing import hash_items

        return hash_items(
            "fog-directory", *(peer.replica.digest() for peer in self.peers)
        ).hex()[:32]

    def lookup(
        self,
        origin_cluster: int,
        data_id: str,
        via_peer: Optional[SuperPeer] = None,
    ) -> Optional[Tuple[int, MetadataItem]]:
        """Resolve a data id outside its origin cluster via the directory.

        Consults the origin's home super-peer (or ``via_peer`` on the
        fallback path), blooms a candidate shortlist, cross-checks each
        served entry against the candidate's chain, then verifies the
        item on the candidate's reference chain.  Returns
        ``(cluster_id, item)`` or ``None``; counting success/failure is
        the caller's job (the driver retries first).
        """
        peer = (
            via_peer
            if via_peer is not None
            else self.peers[self.home_of[origin_cluster]]
        )
        for candidate in peer.replica.candidates_for(data_id, exclude=origin_cluster):
            entry = peer.replica.entries[candidate]
            chain = self.domains[candidate].cluster.longest_chain_node().chain
            if not self._entry_matches_chain(entry, chain):
                self.counters.verify_rejected += 1
                _obs.add("fog.verify_rejected")
                # Only attributable mismatches score: an entry the serving
                # peer itself homes is one it built (or forged), so serving
                # a contradicted one is on it.  A *relayed* entry can go
                # stale-wrong through the candidate cluster's own byzantine
                # reorg — skip it, but charge nobody.
                if self.home_of.get(candidate) == peer.peer_id:
                    self.charge(peer.peer_id, FOG_DIGEST_MISMATCH)
                continue
            item = chain.metadata_of(data_id)
            if item is not None:
                return candidate, item
            self.counters.bloom_fp_probes += 1
            _obs.add("fog.bloom_fp_probes")
        return None

    def migrate(self, origin_cluster: int, item: MetadataItem) -> None:
        """Pull a foreign item into ``origin_cluster`` via its gateway.

        Models the fetch as one fog round-trip; the gateway then re-signs
        and announces the item so the target cluster's UFL allocation
        places it like home-grown data.
        """
        self.engine.schedule(
            2.0 * self.spec.fog_latency_seconds,
            self._deliver_migration,
            origin_cluster,
            item,
        )

    def push_migration(
        self, target_cluster: int, item: MetadataItem, pushed_by: int
    ) -> None:
        """An unsolicited migration pushed at a sibling's gateway.

        Nothing stops a super-peer from *sending* one — that is the
        gateway-tamperer's attack surface — but the gateway's structural
        admission decides whether it lands, and a rejected push charges
        the pusher.
        """
        self.engine.schedule(
            2.0 * self.spec.fog_latency_seconds,
            self._deliver_migration,
            target_cluster,
            item,
            pushed_by,
        )

    def _deliver_migration(
        self,
        origin_cluster: int,
        item: MetadataItem,
        pushed_by: Optional[int] = None,
    ) -> None:
        cluster = self.domains[origin_cluster].cluster
        gateway = cluster.nodes[min(cluster.node_ids)]
        if not gateway.online:
            return
        before = gateway.admission.rejections.get(FOREIGN_METADATA, 0)
        if gateway.adopt_foreign_metadata(item) is not None:
            self.counters.migrations += 1
            return
        if gateway.admission.rejections.get(FOREIGN_METADATA, 0) > before:
            self.counters.migrations_rejected += 1
            _obs.add("fog.migrations_rejected")
            if pushed_by is not None:
                self.charge(pushed_by, FOG_BAD_MIGRATION)


class CrossLookupDriver:
    """Fires scheduled cross-cluster lookups, retrying through directory lag.

    A freshly produced item is invisible to the fog until its cluster's
    next refresh gossips out, so a lookup that comes up empty retries a
    few refresh-scale intervals before counting as failed — mirroring the
    single-cluster request driver's race with block packing.  When the
    primary home peer's retry budget exhausts — a poisoned replica, a
    quarantine mid-flight — the driver falls back to a deterministic
    secondary super-peer with a few capped, jittered retries instead of
    giving up.  The jitter comes from the driver's own seeded stream and
    is only drawn on the fallback path, which honest runs never reach.
    """

    def __init__(self, fog: FogTier, rng: Optional[random.Random] = None):
        self.fog = fog
        self.rng = rng if rng is not None else random.Random(0)

    def schedule(
        self, origin_cluster: int, data_id: str, when: float, migrate: bool
    ) -> None:
        self.fog.engine.call_at(when, self._fire, origin_cluster, data_id, migrate, 0)

    def _resolved(self, origin_cluster: int, item: MetadataItem, migrate: bool) -> None:
        self.fog.counters.lookups_ok += 1
        if migrate:
            self.fog.migrate(origin_cluster, item)

    def _fire(
        self, origin_cluster: int, data_id: str, migrate: bool, attempt: int
    ) -> None:
        result = self.fog.lookup(origin_cluster, data_id)
        if result is None:
            if attempt < LOOKUP_MAX_RETRIES:
                self.fog.engine.schedule(
                    LOOKUP_RETRY_SECONDS,
                    self._fire,
                    origin_cluster,
                    data_id,
                    migrate,
                    attempt + 1,
                )
                return
            fallback = self.fog.fallback_peer_for(origin_cluster)
            if fallback is None:
                self.fog.counters.lookups_failed += 1
                return
            self.fog.counters.lookup_fallbacks += 1
            _obs.add("fog.lookup_fallbacks")
            self._fire_fallback(
                origin_cluster, data_id, migrate, fallback.peer_id, 0
            )
            return
        _source_cluster, item = result
        self._resolved(origin_cluster, item, migrate)

    def _fire_fallback(
        self,
        origin_cluster: int,
        data_id: str,
        migrate: bool,
        peer_id: int,
        attempt: int,
    ) -> None:
        result = self.fog.lookup(
            origin_cluster, data_id, via_peer=self.fog.peers[peer_id]
        )
        if result is None:
            if attempt < LOOKUP_FALLBACK_RETRIES:
                delay = LOOKUP_RETRY_SECONDS * (0.5 + self.rng.random())
                self.fog.engine.schedule(
                    delay,
                    self._fire_fallback,
                    origin_cluster,
                    data_id,
                    migrate,
                    peer_id,
                    attempt + 1,
                )
            else:
                self.fog.counters.lookups_failed += 1
            return
        _source_cluster, item = result
        self._resolved(origin_cluster, item, migrate)
