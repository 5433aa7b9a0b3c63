"""Discrete-event network simulation substrate.

Replaces the paper's Docker-container testbed with a deterministic
single-process simulator: an event engine, a geometric unit-disk topology
with hop-count routing, an 802.11-style channel model (10 ms/hop), mobility,
gossip, byte-level transmission accounting, and fault injection.
"""

from repro.simnet.channel import DEFAULT_BANDWIDTH, DEFAULT_HOP_DELAY, ChannelModel
from repro.simnet.engine import EventEngine, EventHandle
from repro.simnet.faults import ChurnEvent, ChurnInjector, PartitionInjector
from repro.simnet.gossip import GossipFabric
from repro.simnet.mobility import (
    DEFAULT_MOBILITY_RANGE,
    MobilityProfile,
    RangeBoundedMobility,
)
from repro.simnet.topology import (
    DEFAULT_COMM_RANGE,
    DEFAULT_FIELD_SIZE,
    UNREACHABLE,
    Position,
    Topology,
    connected_random_positions,
    random_positions,
)
from repro.simnet.trace import NodeTraffic, TransmissionTrace
from repro.simnet.transport import Network, SendReceipt

__all__ = [
    "EventEngine",
    "EventHandle",
    "Position",
    "Topology",
    "random_positions",
    "connected_random_positions",
    "DEFAULT_FIELD_SIZE",
    "DEFAULT_COMM_RANGE",
    "UNREACHABLE",
    "MobilityProfile",
    "RangeBoundedMobility",
    "DEFAULT_MOBILITY_RANGE",
    "ChannelModel",
    "DEFAULT_HOP_DELAY",
    "DEFAULT_BANDWIDTH",
    "Network",
    "SendReceipt",
    "GossipFabric",
    "TransmissionTrace",
    "NodeTraffic",
    "ChurnInjector",
    "ChurnEvent",
    "PartitionInjector",
]
