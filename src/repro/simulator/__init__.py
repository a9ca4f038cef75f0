"""Discrete-event network simulator substrate.

This package replaces NS-2 for the reproduction: an event-heap engine,
store-and-forward links with drop-tail queues, hosts and routers, unicast
routing, IP-multicast forwarding with IGMP-style membership, deterministic
random streams and measurement instrumentation.

Public surface
--------------
The names re-exported here form the simulator's public API; everything else
in the package is an implementation detail.
"""

from .address import (
    MULTICAST_BASE,
    GroupAddress,
    GroupAddressAllocator,
    NodeAddress,
    is_multicast,
)
from .engine import PeriodicTimer, SimulationError, Simulator
from .igmp import IgmpGroupManager, IgmpHostInterface, install_igmp
from .link import Link, LinkStats, default_buffer_bytes
from .monitors import (
    LinkMonitor,
    OverheadAccumulator,
    ThroughputMonitor,
    ThroughputSample,
)
from .multicast import MulticastRoutingService
from .node import ControlChannel, Host, Node, PacketAgent, Router
from .packet import Packet
from .queues import DropTailQueue, QueueStats
from .rng import RandomStreams
from .routing import compute_routes
from .topology import (
    TOPOLOGIES,
    LinkSpec,
    Network,
    NetworkGraph,
    TopologySpec,
    build_topology,
    binary_tree_topology,
    dumbbell_topology,
    multi_edge_dumbbell_topology,
    parking_lot_topology,
    sharded_dumbbell_topology,
    star_topology,
)

__all__ = [
    "TOPOLOGIES",
    "LinkSpec",
    "NetworkGraph",
    "TopologySpec",
    "build_topology",
    "binary_tree_topology",
    "dumbbell_topology",
    "multi_edge_dumbbell_topology",
    "parking_lot_topology",
    "sharded_dumbbell_topology",
    "star_topology",
    "MULTICAST_BASE",
    "GroupAddress",
    "GroupAddressAllocator",
    "NodeAddress",
    "is_multicast",
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
    "IgmpGroupManager",
    "IgmpHostInterface",
    "install_igmp",
    "Link",
    "LinkStats",
    "default_buffer_bytes",
    "LinkMonitor",
    "OverheadAccumulator",
    "ThroughputMonitor",
    "ThroughputSample",
    "MulticastRoutingService",
    "ControlChannel",
    "Host",
    "Node",
    "PacketAgent",
    "Router",
    "Packet",
    "DropTailQueue",
    "QueueStats",
    "RandomStreams",
    "compute_routes",
    "Network",
]
