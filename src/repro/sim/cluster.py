"""Cluster builder: a complete edge blockchain deployment in one object.

Wires together everything a run needs — event engine, connected geometric
topology, mobility, transport with byte accounting, allocation engine,
deterministic accounts, and one :class:`~repro.core.node.EdgeNode` per
device — using the paper's parameters from a
:class:`~repro.core.config.SystemConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.account import Account
from repro.core.allocation import AllocationEngine
from repro.core.config import SystemConfig
from repro.core.node import EdgeNode
from repro.energy.meter import EnergyMeter
from repro.simnet.channel import ChannelModel
from repro.simnet.engine import EventEngine
from repro.simnet.mobility import RangeBoundedMobility
from repro.simnet.topology import Topology, connected_random_positions
from repro.simnet.transport import Network


@dataclass
class EdgeCluster:
    """A fully wired simulation cluster."""

    config: SystemConfig
    engine: EventEngine
    topology: Topology
    mobility: RangeBoundedMobility
    network: Network
    allocator: AllocationEngine
    accounts: Dict[int, Account]
    nodes: Dict[int, EdgeNode]

    @property
    def node_ids(self) -> List[int]:
        return sorted(self.nodes.keys())

    def start(self) -> None:
        """Arm every node's first mining schedule."""
        for node in self.nodes.values():
            node.start()

    def advance_mobility_epoch(self, max_resamples: int = 20) -> None:
        """Resample node positions and refresh the topology.

        Connectivity-preserving: positions are resampled (bounded tries)
        until the *online* nodes still form one component, falling back to
        the last sample otherwise.  Mobility thereby changes hop distances
        — exercising the RDC's range terms — without hard partitions, which
        the paper's testbed (Docker sockets) never exhibited; real
        disconnections are injected explicitly by the churn scenarios.
        """
        online = self.network.online_nodes()
        for _ in range(max_resamples):
            self.mobility.advance_epoch(self.topology)
            if self.topology.is_connected_subset(online):
                return
        # No connected sample found (fragile bridge in the home layout):
        # snap back to the home positions, which are connected by
        # construction.  Nodes simply spent this epoch near home.
        self.mobility.reset_to_homes(self.topology)

    def longest_chain_node(self) -> EdgeNode:
        """The node holding the longest chain (metric reference chain)."""
        return max(self.nodes.values(), key=lambda n: n.chain.height)


def build_cluster(
    node_count: int,
    config: SystemConfig,
    seed: int = 0,
    with_energy_meters: bool = False,
    node_classes: Optional[Dict[int, type]] = None,
    engine: Optional[EventEngine] = None,
    rng: Optional[np.random.Generator] = None,
) -> EdgeCluster:
    """Build a connected cluster of ``node_count`` edge devices.

    Accounts are derived deterministically from ``seed`` so repeated runs
    produce identical identities, hits, and therefore identical chains.

    ``node_classes`` maps node ids to :class:`EdgeNode` subclasses —
    used by the Byzantine tests to plant adversaries (e.g.
    :class:`~repro.core.adversary.DenyingNode`) among honest nodes.

    ``engine`` injects a shared :class:`EventEngine` instead of creating
    one from ``seed``, and ``rng`` a cluster-private numpy generator for
    layout/mobility/allocation draws (default: the engine's stream) — the
    federation layer uses both to place K clusters on one simulated clock
    while keeping each cluster's randomness an independent function of
    its derived seed.
    """
    if node_count < 2:
        raise ValueError("a blockchain network needs at least 2 nodes")
    if engine is None:
        engine = EventEngine(seed=seed)
    if rng is None:
        rng = engine.np_rng
    positions = connected_random_positions(
        node_count,
        rng,
        field_size=config.field_size,
        comm_range=config.comm_range,
    )
    topology = Topology(positions, comm_range=config.comm_range)
    mobility = RangeBoundedMobility.uniform(
        positions,
        rng,
        wander_range=config.mobility_range,
        field_size=config.field_size,
    )
    channel = ChannelModel(hop_delay=config.hop_delay, bandwidth=config.bandwidth)
    network = Network(engine, topology, channel)
    allocator = AllocationEngine(config, rng=rng)

    accounts = {
        node_id: Account.for_node(seed, node_id) for node_id in range(node_count)
    }
    # The cluster's tables: every node and chain holds these very objects.
    node_ids = tuple(range(node_count))
    address_of = {node_id: account.address for node_id, account in accounts.items()}
    ranges = [mobility.wander_range(node_id) for node_id in node_ids]

    nodes: Dict[int, EdgeNode] = {}
    classes = node_classes or {}
    for node_id in node_ids:
        meter: Optional[EnergyMeter] = EnergyMeter() if with_energy_meters else None
        node_class = classes.get(node_id, EdgeNode)
        nodes[node_id] = node_class(
            node_id=node_id,
            account=accounts[node_id],
            config=config,
            network=network,
            engine=engine,
            topology=topology,
            allocator=allocator,
            node_ids=node_ids,
            address_of=address_of,
            mobility_ranges=ranges,
            meter=meter,
        )
    return EdgeCluster(
        config=config,
        engine=engine,
        topology=topology,
        mobility=mobility,
        network=network,
        allocator=allocator,
        accounts=accounts,
        nodes=nodes,
    )
