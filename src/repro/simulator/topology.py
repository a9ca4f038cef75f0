"""Topology construction.

``Network`` is the container that owns the simulator, the nodes, the links,
the unicast routing computation and the multicast routing service.  On top of
it sit two layers:

* :class:`TopologySpec` / :class:`NetworkGraph` — a declarative description
  of an arbitrary router graph (named routers, per-link bandwidth, delay
  and buffer, plus designated sender/receiver attachment routers) and the
  builder that realises it.  Factory functions produce the specs for the
  named topologies — ``dumbbell``, ``parking-lot`` (chain of
  bottlenecks), ``star`` and ``binary-tree`` — and the :data:`TOPOLOGIES`
  registry makes them addressable by name from scenario specifications.

The paper's §5.1 evaluation topology is the ``dumbbell`` factory realised
like any other: senders attach to the ``left`` router and receivers to the
``right`` one, so every session's path is three links with the
``left``–``right`` bottleneck in the middle; access links are 10 Mbps with
10 ms propagation delay, the bottleneck has a 20 ms delay, and its queue
holds two path bandwidth-delay products.  Its default capacity is one
250 Kbps fair share; experiments that share it size it at one fair share
per flow crossing it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from .address import GroupAddress, GroupAddressAllocator, NodeAddress
from .engine import Simulator
from .link import Link, default_buffer_bytes
from .multicast import MulticastRoutingService
from .node import ControlChannel, Host, Node, Router
from .queues import DropTailQueue
from .routing import compute_routes
from .rng import RandomStreams

__all__ = [
    "Network",
    "NetworkGraph",
    "LinkSpec",
    "TopologySpec",
    "TOPOLOGIES",
    "build_topology",
    "dumbbell_topology",
    "parking_lot_topology",
    "star_topology",
    "sharded_dumbbell_topology",
    "binary_tree_topology",
]

class Network:
    """A collection of nodes and links plus the shared services they need."""

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0) -> None:
        self.sim = sim or Simulator()
        self.random = RandomStreams(seed)
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.multicast = MulticastRoutingService(self.sim)
        self.groups = GroupAddressAllocator()
        self._next_address = itertools.count(1)
        self._routes_stale = True

    # ------------------------------------------------------------------
    # node creation
    # ------------------------------------------------------------------
    def _allocate_address(self) -> NodeAddress:
        return NodeAddress(next(self._next_address))

    def add_host(self, name: str) -> Host:
        """Create a host with a fresh unicast address."""
        if name in self.nodes:
            raise ValueError(f"node name {name!r} already in use")
        host = Host(self.sim, name, self._allocate_address())
        self.nodes[name] = host
        self._routes_stale = True
        return host

    def add_router(self, name: str) -> Router:
        """Create a router with a fresh unicast address."""
        if name in self.nodes:
            raise ValueError(f"node name {name!r} already in use")
        router = Router(self.sim, name, self._allocate_address())
        router.multicast_service = self.multicast
        self.nodes[name] = router
        self._routes_stale = True
        return router

    # ------------------------------------------------------------------
    # link creation
    # ------------------------------------------------------------------
    def duplex_link(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float,
        delay_s: float,
        buffer_bytes: Optional[int] = None,
        buffer_bdp_multiple: float = 2.0,
    ) -> Tuple[Link, Link]:
        """Connect ``a`` and ``b`` with two simplex links (one per direction)."""
        if buffer_bytes is None:
            buffer_bytes = default_buffer_bytes(bandwidth_bps, delay_s, buffer_bdp_multiple)
        forward = Link(
            self.sim, a, b, bandwidth_bps, delay_s, DropTailQueue(buffer_bytes)
        )
        backward = Link(
            self.sim, b, a, bandwidth_bps, delay_s, DropTailQueue(buffer_bytes)
        )
        a.attach_link(forward)
        b.attach_link(backward)
        self.links.extend([forward, backward])
        self._routes_stale = True
        return forward, backward

    def attach_host(
        self,
        host: Host,
        edge_router: Router,
        bandwidth_bps: float,
        delay_s: float,
        buffer_bytes: Optional[int] = None,
    ) -> Tuple[Link, Link]:
        """Connect a host to its edge router and wire up the control channel."""
        links = self.duplex_link(host, edge_router, bandwidth_bps, delay_s, buffer_bytes)
        host.edge_router = edge_router
        host.control = ControlChannel(self.sim, delay_s)
        return links

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """(Re)compute unicast forwarding tables on every node."""
        compute_routes(self.nodes.values())
        # Hosts keep a default route through their only uplink so multicast
        # sends do not need a routing entry per group.
        for node in self.nodes.values():
            if isinstance(node, Host) and node.links:
                node.default_route = next(iter(node.links.values()))
        self._routes_stale = False

    def ensure_routes(self) -> None:
        if self._routes_stale:
            self.build_routes()

    # ------------------------------------------------------------------
    # convenience lookups
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"{name} is a {type(node).__name__}, not a Host")
        return node

    def router(self, name: str) -> Router:
        node = self.nodes[name]
        if not isinstance(node, Router):
            raise TypeError(f"{name} is a {type(node).__name__}, not a Router")
        return node

    def find_link(self, src: Node, dst: Node) -> Link:
        for link in self.links:
            if link.src is src and link.dst is dst:
                return link
        raise KeyError(f"no link from {src.name} to {dst.name}")

    def allocate_groups(self, count: int) -> List[GroupAddress]:
        """Allocate a block of multicast group addresses for a session."""
        return self.groups.allocate_block(count)

    def run(self, until: float) -> None:
        """Build routes if needed and run the simulation until ``until``."""
        self.ensure_routes()
        self.sim.run(until=until)


# ----------------------------------------------------------------------
# declarative topology graph
# ----------------------------------------------------------------------
def _check_link_numbers(where: str, prefix: str, bandwidth_bps: float, delay_s: float) -> None:
    """Refuse a bandwidth that is not finite and > 0 or a delay that is not
    finite and >= 0, naming the ``<prefix>bandwidth_bps``/``delay_s`` field."""
    if not (math.isfinite(bandwidth_bps) and bandwidth_bps > 0):
        raise ValueError(
            f"{where}: {prefix}bandwidth_bps must be a finite number > 0, got {bandwidth_bps!r}"
        )
    if not (math.isfinite(delay_s) and delay_s >= 0):
        raise ValueError(
            f"{where}: {prefix}delay_s must be a finite number >= 0, got {delay_s!r}"
        )


@dataclass(frozen=True)
class LinkSpec:
    """One duplex router-to-router link of a :class:`TopologySpec`."""

    a: str
    b: str
    bandwidth_bps: float
    delay_s: float
    buffer_bytes: Optional[int] = None
    buffer_bdp_multiple: float = 2.0

    def __post_init__(self) -> None:
        _check_link_numbers(f"link {self.a!r}-{self.b!r}", "", self.bandwidth_bps, self.delay_s)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a router graph.

    Hosts are not part of the spec: experiment layers attach sender and
    receiver hosts on demand, by default round-robin over the designated
    ``sender_routers`` / ``receiver_routers`` (explicit per-host placement is
    also possible).  Access links use the shared bandwidth/delay below unless
    the caller overrides them per host.

    ``regions`` optionally partitions the routers into disjoint *topology
    regions* for the region-sharded runner (``docs/scale.md``): each entry
    lists the routers of one region, routers in no region form the shared
    trunk, and every link must stay within one region or connect a region to
    the trunk — the trunk-to-region links are the designated *cut links*
    where boundary events are merged.  Sender routers must sit on the trunk
    so every region sub-topology can carry the full session set.
    """

    kind: str
    routers: Tuple[str, ...]
    links: Tuple[LinkSpec, ...]
    sender_routers: Tuple[str, ...]
    receiver_routers: Tuple[str, ...]
    access_bandwidth_bps: float = 10_000_000.0
    access_delay_s: float = 0.010
    regions: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        _check_link_numbers(
            f"topology {self.kind!r}", "access_", self.access_bandwidth_bps, self.access_delay_s
        )
        known = set(self.routers)
        if len(known) != len(self.routers):
            raise ValueError("router names must be unique")
        for spec in self.links:
            if spec.a not in known or spec.b not in known:
                raise ValueError(f"link {spec.a!r}-{spec.b!r} references unknown router")
        for name in self.sender_routers + self.receiver_routers:
            if name not in known:
                raise ValueError(f"attachment router {name!r} is not in the spec")
        if not self.sender_routers or not self.receiver_routers:
            raise ValueError("spec needs at least one sender and one receiver router")
        if self.regions:
            membership: Dict[str, int] = {}
            for index, group in enumerate(self.regions):
                if not group:
                    raise ValueError("a topology region cannot be empty")
                for name in group:
                    if name not in known:
                        raise ValueError(f"region router {name!r} is not in the spec")
                    if name in membership:
                        raise ValueError(f"router {name!r} appears in two regions")
                    membership[name] = index
            for name in self.sender_routers:
                if name in membership:
                    raise ValueError(
                        f"sender router {name!r} must sit on the trunk, not in a region"
                    )
            for spec in self.links:
                a, b = membership.get(spec.a), membership.get(spec.b)
                if a is not None and b is not None and a != b:
                    raise ValueError(
                        f"link {spec.a!r}-{spec.b!r} crosses two regions; regions "
                        "may only connect to the trunk (the cut links)"
                    )

    # ------------------------------------------------------------------
    def without_routers(self, names: Collection[str]) -> "TopologySpec":
        """This graph less the routers ``names`` and every link touching one."""
        if not names:
            return self
        return replace(
            self,
            routers=tuple(r for r in self.routers if r not in names),
            links=tuple(
                link for link in self.links if link.a not in names and link.b not in names
            ),
            receiver_routers=tuple(r for r in self.receiver_routers if r not in names),
            regions=tuple(
                tuple(r for r in group if r not in names) for group in self.regions
            ),
        )

    def region_of(self, router: str) -> Optional[int]:
        """0-based region index of ``router`` (``None`` for trunk routers)."""
        for index, group in enumerate(self.regions):
            if router in group:
                return index
        return None


class NetworkGraph(Network):
    """A :class:`Network` realised from a :class:`TopologySpec`.

    Provides the host-attachment API the experiment layer builds on:
    :meth:`add_sender` / :meth:`add_receiver` hang hosts off the designated
    attachment routers (round-robin by default, or an explicit ``router=``).
    """

    def __init__(self, spec: TopologySpec, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.spec = spec
        for name in spec.routers:
            self.add_router(name)
        for link in spec.links:
            self.duplex_link(
                self.nodes[link.a],
                self.nodes[link.b],
                link.bandwidth_bps,
                link.delay_s,
                buffer_bytes=link.buffer_bytes,
                buffer_bdp_multiple=link.buffer_bdp_multiple,
            )
        self._sender_count = 0
        self._receiver_count = 0
        self._sender_cursor = 0
        self._receiver_cursor = 0

    # ------------------------------------------------------------------
    def _attachment_router(self, router: Optional[str], pool: Sequence[str], cursor: int) -> Router:
        if router is not None:
            return self.router(router)
        return self.router(pool[cursor % len(pool)])

    def add_sender(
        self,
        name: Optional[str] = None,
        access_delay_s: Optional[float] = None,
        router: Optional[str] = None,
    ) -> Host:
        """Attach a traffic source to a sender-side router."""
        edge = self._attachment_router(router, self.spec.sender_routers, self._sender_cursor)
        if router is None:
            self._sender_cursor += 1
        self._sender_count += 1
        host = self.add_host(name or f"sender{self._sender_count}")
        self.attach_host(
            host,
            edge,
            self.spec.access_bandwidth_bps,
            self.spec.access_delay_s if access_delay_s is None else access_delay_s,
        )
        return host

    def add_receiver(
        self,
        name: Optional[str] = None,
        access_delay_s: Optional[float] = None,
        router: Optional[str] = None,
    ) -> Host:
        """Attach a traffic sink to a receiver-side router."""
        edge = self._attachment_router(router, self.spec.receiver_routers, self._receiver_cursor)
        if router is None:
            self._receiver_cursor += 1
        self._receiver_count += 1
        host = self.add_host(name or f"receiver{self._receiver_count}")
        self.attach_host(
            host,
            edge,
            self.spec.access_bandwidth_bps,
            self.spec.access_delay_s if access_delay_s is None else access_delay_s,
        )
        return host

    @property
    def receiver_edge_routers(self) -> List[Router]:
        """The routers receivers attach to (where group management lives)."""
        return [self.router(name) for name in self.spec.receiver_routers]

    @property
    def edge_router(self) -> Router:
        """The first receiver-side router (the only one on a dumbbell)."""
        return self.router(self.spec.receiver_routers[0])


# ----------------------------------------------------------------------
# named topology factories
# ----------------------------------------------------------------------
#: The most routers a named factory builds.  A spec's topology is built when
#: the spec is declared, also from an untrusted document on the daemon's
#: event loop, so a larger size is refused before anything is allocated.
MAX_ROUTERS = 4096


def _check_integer(kind: str, name: str, value: int) -> None:
    """Refuse a size parameter that is not an integer, naming it: ``True``
    or ``2.0`` would pass Python's arithmetic and build the wrong graph, or
    fail deep inside the factory."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{kind}: {name} must be an integer, got {value!r}")


def _check_router_count(kind: str, routers: int) -> None:
    if routers > MAX_ROUTERS:
        raise ValueError(f"{kind} would have {routers} routers; the limit is {MAX_ROUTERS}")


def _chain_buffer_bytes(
    bandwidth_bps: float,
    path_rtt_s: float,
    buffer_bdp_multiple: float,
) -> int:
    """Queue capacity of ``buffer_bdp_multiple`` path BDPs with a sane floor.

    The sizing rule of every bottleneck: the paper sizes buffers at two
    bandwidth-delay products, and sizing on the path round-trip time (80 ms
    on the default dumbbell) rather than the single hop's delay gives the
    queue the headroom NS-2 runs exhibit and keeps small bottlenecks (the
    250 Kbps Figure 8 points) from degenerating to a two-packet buffer.
    A non-finite bandwidth or delay sizes the floor; the
    :class:`LinkSpec` or :class:`TopologySpec` built next refuses it by name.
    """
    if not (math.isfinite(buffer_bdp_multiple) and buffer_bdp_multiple > 0):
        raise ValueError(
            f"buffer_bdp_multiple must be a finite number > 0, got {buffer_bdp_multiple!r}"
        )
    buffer_bytes = buffer_bdp_multiple * (bandwidth_bps * path_rtt_s / 8.0)
    return max(int(buffer_bytes), 4 * 1600) if math.isfinite(buffer_bytes) else 4 * 1600


def dumbbell_topology(
    bottleneck_bandwidth_bps: float = 250_000.0,
    bottleneck_delay_s: float = 0.020,
    access_bandwidth_bps: float = 10_000_000.0,
    access_delay_s: float = 0.010,
    buffer_bdp_multiple: float = 2.0,
) -> TopologySpec:
    """The §5.1 single-bottleneck dumbbell: ``left`` — bottleneck — ``right``.

    Senders attach at ``left`` and receivers at ``right``, so every path is
    three links long with the bottleneck in the middle.  The default
    capacity is one 250 Kbps fair share (the paper's single session).
    """
    path_rtt_s = 2.0 * (2.0 * access_delay_s + bottleneck_delay_s)
    buffer_bytes = _chain_buffer_bytes(
        bottleneck_bandwidth_bps, path_rtt_s, buffer_bdp_multiple
    )
    return TopologySpec(
        kind="dumbbell",
        routers=("left", "right"),
        links=(
            LinkSpec(
                "left",
                "right",
                bottleneck_bandwidth_bps,
                bottleneck_delay_s,
                buffer_bytes=buffer_bytes,
            ),
        ),
        sender_routers=("left",),
        receiver_routers=("right",),
        access_bandwidth_bps=access_bandwidth_bps,
        access_delay_s=access_delay_s,
    )


def parking_lot_topology(
    hops: int = 3,
    bottleneck_bandwidth_bps: float = 1_000_000.0,
    bottleneck_delay_s: float = 0.020,
    access_bandwidth_bps: float = 10_000_000.0,
    access_delay_s: float = 0.010,
    buffer_bdp_multiple: float = 2.0,
) -> TopologySpec:
    """A chain of ``hops`` equal bottlenecks (the classic parking lot).

    Senders attach at the head router ``r0``; receivers round-robin over the
    downstream routers ``r1..r<hops>``, so a multi-receiver session spans
    several bottlenecks while cross traffic can enter at any point of the
    chain.
    """
    _check_integer("parking lot", "hops", hops)
    if hops < 1:
        raise ValueError("parking lot needs at least one bottleneck hop")
    _check_router_count("parking lot", hops + 1)
    routers = tuple(f"r{i}" for i in range(hops + 1))
    path_rtt_s = 2.0 * (2.0 * access_delay_s + hops * bottleneck_delay_s)
    buffer_bytes = _chain_buffer_bytes(
        bottleneck_bandwidth_bps, path_rtt_s, buffer_bdp_multiple
    )
    links = tuple(
        LinkSpec(
            routers[i],
            routers[i + 1],
            bottleneck_bandwidth_bps,
            bottleneck_delay_s,
            buffer_bytes=buffer_bytes,
        )
        for i in range(hops)
    )
    return TopologySpec(
        kind="parking-lot",
        routers=routers,
        links=links,
        sender_routers=(routers[0],),
        receiver_routers=routers[1:],
        access_bandwidth_bps=access_bandwidth_bps,
        access_delay_s=access_delay_s,
    )


def star_topology(
    arms: int = 4,
    arm_bandwidth_bps: float = 1_000_000.0,
    arm_delay_s: float = 0.020,
    access_bandwidth_bps: float = 10_000_000.0,
    access_delay_s: float = 0.010,
    buffer_bdp_multiple: float = 2.0,
) -> TopologySpec:
    """A core router with ``arms`` independently-bottlenecked edge routers.

    Senders attach at the core; receivers round-robin over the arms, so each
    arm link is a private bottleneck and every arm router runs its own group
    manager (IGMP or SIGMA).
    """
    _check_integer("star", "arms", arms)
    if arms < 1:
        raise ValueError("star needs at least one arm")
    _check_router_count("star", arms + 1)
    arm_names = tuple(f"arm{i + 1}" for i in range(arms))
    path_rtt_s = 2.0 * (2.0 * access_delay_s + arm_delay_s)
    buffer_bytes = _chain_buffer_bytes(arm_bandwidth_bps, path_rtt_s, buffer_bdp_multiple)
    links = tuple(
        LinkSpec("core", arm, arm_bandwidth_bps, arm_delay_s, buffer_bytes=buffer_bytes)
        for arm in arm_names
    )
    return TopologySpec(
        kind="star",
        routers=("core",) + arm_names,
        links=links,
        sender_routers=("core",),
        receiver_routers=arm_names,
        access_bandwidth_bps=access_bandwidth_bps,
        access_delay_s=access_delay_s,
    )


def multi_edge_dumbbell_topology(
    edges: int = 8,
    bottleneck_bandwidth_bps: float = 1_000_000.0,
    bottleneck_delay_s: float = 0.020,
    edge_bandwidth_bps: float = 10_000_000.0,
    edge_delay_s: float = 0.005,
    access_bandwidth_bps: float = 10_000_000.0,
    access_delay_s: float = 0.010,
    buffer_bdp_multiple: float = 2.0,
) -> TopologySpec:
    """A dumbbell whose right side fans out into ``edges`` edge routers.

    Senders attach at ``left``; one shared ``left``–``core`` bottleneck
    carries the session, and ``edges`` fat (non-bottleneck) distribution
    links fan out from ``core`` to the receiver edge routers.  Every edge
    router runs its own group manager, so this is the shape vector
    placement spreads a very large audience over: one packet copy crosses
    the bottleneck, ``edges`` copies leave the core — receivers behind each
    edge still share a single access interface per block.
    """
    _check_integer("multi-edge dumbbell", "edges", edges)
    if edges < 1:
        raise ValueError("multi-edge dumbbell needs at least one edge router")
    _check_router_count("multi-edge dumbbell", edges + 2)
    edge_names = tuple(f"edge{i + 1}" for i in range(edges))
    path_rtt_s = 2.0 * (2.0 * access_delay_s + bottleneck_delay_s + edge_delay_s)
    bottleneck_buffer = _chain_buffer_bytes(
        bottleneck_bandwidth_bps, path_rtt_s, buffer_bdp_multiple
    )
    edge_buffer = _chain_buffer_bytes(edge_bandwidth_bps, path_rtt_s, buffer_bdp_multiple)
    links = (
        LinkSpec(
            "left",
            "core",
            bottleneck_bandwidth_bps,
            bottleneck_delay_s,
            buffer_bytes=bottleneck_buffer,
        ),
    ) + tuple(
        LinkSpec("core", edge, edge_bandwidth_bps, edge_delay_s, buffer_bytes=edge_buffer)
        for edge in edge_names
    )
    return TopologySpec(
        kind="multi-edge-dumbbell",
        routers=("left", "core") + edge_names,
        links=links,
        sender_routers=("left",),
        receiver_routers=edge_names,
        access_bandwidth_bps=access_bandwidth_bps,
        access_delay_s=access_delay_s,
    )


def sharded_dumbbell_topology(
    regions: int = 4,
    edges_per_region: int = 4,
    region: Optional[int] = None,
    bottleneck_bandwidth_bps: float = 1_000_000.0,
    bottleneck_delay_s: float = 0.020,
    edge_bandwidth_bps: float = 10_000_000.0,
    edge_delay_s: float = 0.005,
    access_bandwidth_bps: float = 10_000_000.0,
    access_delay_s: float = 0.010,
    buffer_bdp_multiple: float = 2.0,
) -> TopologySpec:
    """``regions`` independently-bottlenecked multi-edge dumbbells, annotated.

    Senders attach at the shared trunk router ``left``.  Each region ``r``
    has its own core router ``core<r>`` behind a private
    ``left``–``core<r>`` bottleneck (the region's *cut link*) fanning out to
    ``edges_per_region`` edge routers ``edge<r>-<e>`` on fat distribution
    links.  Receiver routers are listed region-major (region 1's edges
    first), so round-robin vector-block placement assigns each region a
    contiguous, re-splittable share of the cohort rows — the property the
    region planner in :mod:`repro.experiments.shard` relies on.

    ``region=r`` (1-based) builds only that region's sub-topology — the
    trunk plus region ``r``, with identical router names and link
    parameters — which is how a region worker expresses its share of the
    scenario as an ordinary standalone spec.
    """
    _check_integer("sharded dumbbell", "regions", regions)
    _check_integer("sharded dumbbell", "edges_per_region", edges_per_region)
    if regions < 1:
        raise ValueError("sharded dumbbell needs at least one region")
    if edges_per_region < 1:
        raise ValueError("sharded dumbbell needs at least one edge per region")
    _check_router_count("sharded dumbbell", regions * (edges_per_region + 1) + 1)
    if region is not None:
        _check_integer("sharded dumbbell", "region", region)
    if region is not None and not 1 <= region <= regions:
        raise ValueError(f"region must be in 1..{regions}, got {region}")
    wanted = range(1, regions + 1) if region is None else (region,)
    path_rtt_s = 2.0 * (2.0 * access_delay_s + bottleneck_delay_s + edge_delay_s)
    bottleneck_buffer = _chain_buffer_bytes(
        bottleneck_bandwidth_bps, path_rtt_s, buffer_bdp_multiple
    )
    edge_buffer = _chain_buffer_bytes(edge_bandwidth_bps, path_rtt_s, buffer_bdp_multiple)
    routers: List[str] = ["left"]
    links: List[LinkSpec] = []
    receiver_routers: List[str] = []
    region_groups: List[Tuple[str, ...]] = []
    for r in wanted:
        core = f"core{r}"
        edges = tuple(f"edge{r}-{e}" for e in range(1, edges_per_region + 1))
        routers.append(core)
        routers.extend(edges)
        links.append(
            LinkSpec(
                "left",
                core,
                bottleneck_bandwidth_bps,
                bottleneck_delay_s,
                buffer_bytes=bottleneck_buffer,
            )
        )
        links.extend(
            LinkSpec(core, edge, edge_bandwidth_bps, edge_delay_s, buffer_bytes=edge_buffer)
            for edge in edges
        )
        receiver_routers.extend(edges)
        region_groups.append((core,) + edges)
    return TopologySpec(
        kind="sharded-dumbbell",
        routers=tuple(routers),
        links=tuple(links),
        sender_routers=("left",),
        receiver_routers=tuple(receiver_routers),
        access_bandwidth_bps=access_bandwidth_bps,
        access_delay_s=access_delay_s,
        regions=tuple(region_groups),
    )


def binary_tree_topology(
    depth: int = 3,
    link_bandwidth_bps: float = 1_000_000.0,
    link_delay_s: float = 0.010,
    access_bandwidth_bps: float = 10_000_000.0,
    access_delay_s: float = 0.010,
    buffer_bdp_multiple: float = 2.0,
) -> TopologySpec:
    """A complete binary tree of routers, ``depth`` levels deep.

    The sender attaches at the root ``t0``; receivers round-robin over the
    ``2**(depth-1)`` leaves.  With uniform link capacities the links nearest
    the root carry the aggregated load and become the bottlenecks, the shape
    a single-source multicast distribution tree stresses.
    """
    _check_integer("binary tree", "depth", depth)
    if depth < 2:
        raise ValueError("binary tree needs depth >= 2")
    if depth > MAX_ROUTERS.bit_length():
        raise ValueError(f"binary tree of depth {depth} would exceed {MAX_ROUTERS} routers")
    count = 2**depth - 1
    _check_router_count("binary tree", count)
    routers = tuple(f"t{i}" for i in range(count))
    path_rtt_s = 2.0 * (2.0 * access_delay_s + depth * link_delay_s)
    buffer_bytes = _chain_buffer_bytes(link_bandwidth_bps, path_rtt_s, buffer_bdp_multiple)
    links = tuple(
        LinkSpec(
            routers[(child - 1) // 2],
            routers[child],
            link_bandwidth_bps,
            link_delay_s,
            buffer_bytes=buffer_bytes,
        )
        for child in range(1, count)
    )
    first_leaf = 2 ** (depth - 1) - 1
    return TopologySpec(
        kind="binary-tree",
        routers=routers,
        links=links,
        sender_routers=(routers[0],),
        receiver_routers=routers[first_leaf:],
        access_bandwidth_bps=access_bandwidth_bps,
        access_delay_s=access_delay_s,
    )


#: Named topology factories addressable from scenario specifications.
TOPOLOGIES: Dict[str, Callable[..., TopologySpec]] = {
    "dumbbell": dumbbell_topology,
    "parking-lot": parking_lot_topology,
    "star": star_topology,
    "multi-edge-dumbbell": multi_edge_dumbbell_topology,
    "sharded-dumbbell": sharded_dumbbell_topology,
    "binary-tree": binary_tree_topology,
}


def build_topology(kind: str, **params) -> TopologySpec:
    """Build the named topology's spec with factory keyword ``params``."""
    try:
        factory = TOPOLOGIES[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown topology {kind!r}; known: {sorted(TOPOLOGIES)}"
        ) from exc
    for name, value in params.items():
        # A JSON integer past the float range would raise OverflowError in
        # the factory's arithmetic; refuse it by name instead.
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"topology {kind!r}: {name} is past the float range")
    return factory(**params)
