"""Cluster builder: a complete edge blockchain deployment in one object.

Wires together everything a run needs — event engine, connected geometric
topology, mobility, transport with byte accounting, allocation engine,
deterministic accounts, and one :class:`~repro.core.node.EdgeNode` per
device — using the paper's parameters from a
:class:`~repro.core.config.SystemConfig`.

The fabric-free part — the seeded layout, the accounts and the tables
every node shares — is :func:`build_world`, and :meth:`World.node` is the
one place an ``EdgeNode`` is wired; the live harness
(:mod:`repro.net.harness`) builds its deployment from the same two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
class World:
    """The seeded layout and identities of one deployment, on any fabric."""

    topology: Topology
    mobility: RangeBoundedMobility
    accounts: Dict[int, Account]
    #: The cluster's tables: every node and chain holds these very objects.
    node_ids: Tuple[int, ...]
    address_of: Dict[int, str]
    mobility_ranges: List[float]

    def node(
        self,
        node_id: int,
        config: SystemConfig,
        network,
        engine,
        allocator: AllocationEngine,
        node_class: type = EdgeNode,
        meter: Optional[EnergyMeter] = None,
    ) -> EdgeNode:
        """Wire node ``node_id`` onto ``network`` and ``engine``."""
        return node_class(
            node_id=node_id,
            account=self.accounts[node_id],
            config=config,
            network=network,
            engine=engine,
            topology=self.topology,
            allocator=allocator,
            node_ids=self.node_ids,
            address_of=self.address_of,
            mobility_ranges=self.mobility_ranges,
            meter=meter,
        )


def build_world(
    node_count: int, config: SystemConfig, seed: int, rng: np.random.Generator
) -> World:
    """Draw positions, topology and mobility ranges from ``rng``, in that
    order, and derive the accounts from ``seed``."""
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
    accounts = {
        node_id: Account.for_node(seed, node_id) for node_id in range(node_count)
    }
    node_ids = tuple(range(node_count))
    return World(
        topology=topology,
        mobility=mobility,
        accounts=accounts,
        node_ids=node_ids,
        address_of={node_id: account.address for node_id, account in accounts.items()},
        mobility_ranges=[mobility.wander_range(node_id) for node_id in node_ids],
    )


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
) -> EdgeCluster:
    """Build a connected cluster of ``node_count`` edge devices.

    Accounts are derived deterministically from ``seed`` so repeated runs
    produce identical identities, hits, and therefore identical chains.

    ``node_classes`` maps node ids to :class:`EdgeNode` subclasses —
    used by the Byzantine tests to plant adversaries (e.g.
    :class:`~repro.core.adversary.DenyingNode`) among honest nodes.
    """
    if node_count < 2:
        raise ValueError("a blockchain network needs at least 2 nodes")
    engine = EventEngine(seed=seed)
    rng = engine.np_rng
    world = build_world(node_count, config, seed, rng)
    channel = ChannelModel(hop_delay=config.hop_delay, bandwidth=config.bandwidth)
    network = Network(engine, world.topology, channel)
    allocator = AllocationEngine(config, rng=rng)
    classes = node_classes or {}
    nodes = {
        node_id: world.node(
            node_id,
            config,
            network,
            engine,
            allocator,
            node_class=classes.get(node_id, EdgeNode),
            meter=EnergyMeter() if with_energy_meters else None,
        )
        for node_id in world.node_ids
    }
    return EdgeCluster(
        config=config,
        engine=engine,
        topology=world.topology,
        mobility=world.mobility,
        network=network,
        allocator=allocator,
        accounts=world.accounts,
        nodes=nodes,
    )
