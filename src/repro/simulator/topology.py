"""Topology construction.

``Network`` is the container that owns the simulator, the nodes, the links,
the unicast routing computation and the multicast routing service.  On top of
it sit two layers:

* :class:`TopologySpec` / :class:`NetworkGraph` — a declarative description
  of an arbitrary router graph (named routers, per-link bandwidth, delay,
  buffer and queue discipline, plus designated sender/receiver attachment
  routers) and the builder that realises it.  Factory functions produce the
  specs for the named topologies — ``dumbbell``, ``parking-lot`` (chain of
  bottlenecks), ``star`` and ``binary-tree`` — and the :data:`TOPOLOGIES`
  registry makes them addressable by name from scenario specifications.
* :class:`DumbbellNetwork` — the single-bottleneck topology used throughout
  the paper's evaluation (§5.1), now just the ``dumbbell`` factory realised
  by :class:`NetworkGraph` with convenience accessors: every *session* gets
  its own sender host attached to the left-hand router and receiver host(s)
  on the right; the shared middle link's capacity is normally
  ``fair_share × number_of_sessions``; access links are 10 Mbps with 10 ms
  propagation delay, the bottleneck has a 20 ms delay, and every queue holds
  two bandwidth-delay products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .address import GroupAddress, GroupAddressAllocator, NodeAddress
from .engine import Simulator
from .link import Link, default_buffer_bytes
from .multicast import MulticastRoutingService
from .node import ControlChannel, Host, Node, Router
from .queues import DropTailQueue, ECNMarkingQueue
from .routing import compute_routes
from .rng import RandomStreams

__all__ = [
    "Network",
    "NetworkGraph",
    "DumbbellNetwork",
    "DumbbellConfig",
    "LinkSpec",
    "TopologySpec",
    "TOPOLOGIES",
    "QUEUE_DISCIPLINES",
    "build_topology",
    "dumbbell_topology",
    "parking_lot_topology",
    "star_topology",
    "sharded_dumbbell_topology",
    "binary_tree_topology",
]

#: Queue disciplines addressable from :class:`LinkSpec`.  Each factory takes
#: the queue capacity in bytes and returns a queue instance.
QUEUE_DISCIPLINES: Dict[str, Callable[[int], DropTailQueue]] = {
    "droptail": DropTailQueue,
    "ecn": ECNMarkingQueue,
}


class Network:
    """A collection of nodes and links plus the shared services they need."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        graft_delay_s: float = 0.02,
        prune_delay_s: float = 0.02,
    ) -> None:
        self.sim = sim or Simulator()
        self.random = RandomStreams(seed)
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.multicast = MulticastRoutingService(
            self.sim, graft_delay_s=graft_delay_s, prune_delay_s=prune_delay_s
        )
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
        queue: str = "droptail",
    ) -> Tuple[Link, Link]:
        """Connect ``a`` and ``b`` with two simplex links (one per direction)."""
        if buffer_bytes is None:
            buffer_bytes = default_buffer_bytes(bandwidth_bps, delay_s, buffer_bdp_multiple)
        try:
            make_queue = QUEUE_DISCIPLINES[queue]
        except KeyError as exc:
            raise ValueError(
                f"unknown queue discipline {queue!r}; "
                f"known: {sorted(QUEUE_DISCIPLINES)}"
            ) from exc
        forward = Link(
            self.sim, a, b, bandwidth_bps, delay_s, make_queue(buffer_bytes)
        )
        backward = Link(
            self.sim, b, a, bandwidth_bps, delay_s, make_queue(buffer_bytes)
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
@dataclass(frozen=True)
class LinkSpec:
    """One duplex router-to-router link of a :class:`TopologySpec`."""

    a: str
    b: str
    bandwidth_bps: float
    delay_s: float
    buffer_bytes: Optional[int] = None
    buffer_bdp_multiple: float = 2.0
    queue: str = "droptail"


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

    def __init__(
        self,
        spec: TopologySpec,
        seed: int = 0,
        graft_delay_s: float = 0.02,
        prune_delay_s: float = 0.02,
    ) -> None:
        super().__init__(
            seed=seed, graft_delay_s=graft_delay_s, prune_delay_s=prune_delay_s
        )
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
                queue=link.queue,
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


@dataclass
class DumbbellConfig:
    """Parameters of the §5.1 single-bottleneck topology."""

    bottleneck_bandwidth_bps: float = 1_000_000.0
    bottleneck_delay_s: float = 0.020
    access_bandwidth_bps: float = 10_000_000.0
    access_delay_s: float = 0.010
    buffer_bdp_multiple: float = 2.0
    seed: int = 0
    graft_delay_s: float = 0.02
    prune_delay_s: float = 0.02

    @property
    def path_rtt_s(self) -> float:
        """Round-trip propagation delay of the three-link path (§5.1)."""
        return 2.0 * (2.0 * self.access_delay_s + self.bottleneck_delay_s)

    def bottleneck_buffer_bytes(self) -> int:
        """Bottleneck queue sized at ``buffer_bdp_multiple`` path BDPs.

        The paper sizes buffers at two bandwidth-delay products; using the
        path round-trip time (80 ms in the default topology) rather than the
        single link's propagation delay gives the queue headroom NS-2 runs
        exhibit and keeps the smallest Figure 8 configurations (250 Kbps
        bottleneck) from degenerating to a two-packet buffer.
        """
        return _chain_buffer_bytes(
            self.bottleneck_bandwidth_bps, self.path_rtt_s, self.buffer_bdp_multiple
        )

    @classmethod
    def for_fair_share(
        cls, sessions: int, fair_share_bps: float = 250_000.0, **overrides
    ) -> "DumbbellConfig":
        """Bottleneck sized so each of ``sessions`` flows gets ``fair_share_bps``."""
        if sessions <= 0:
            raise ValueError("sessions must be positive")
        config = cls(bottleneck_bandwidth_bps=fair_share_bps * sessions)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config


class DumbbellNetwork(NetworkGraph):
    """The paper's evaluation topology: left router — bottleneck — right router.

    Senders attach on the left, receivers on the right; every session's path
    is therefore three links long with the bottleneck in the middle, exactly
    as described in §5.1.  This is the ``dumbbell`` factory of the general
    :class:`NetworkGraph` plus the accessors experiments historically used.
    """

    def __init__(self, config: Optional[DumbbellConfig] = None) -> None:
        self.config = config or DumbbellConfig()
        super().__init__(
            dumbbell_topology(self.config),
            seed=self.config.seed,
            graft_delay_s=self.config.graft_delay_s,
            prune_delay_s=self.config.prune_delay_s,
        )
        self.left = self.router("left")
        self.right = self.router("right")
        self.bottleneck = self.find_link(self.left, self.right)
        self.bottleneck_reverse = self.find_link(self.right, self.left)


# ----------------------------------------------------------------------
# named topology factories
# ----------------------------------------------------------------------
def _chain_buffer_bytes(
    bandwidth_bps: float,
    path_rtt_s: float,
    buffer_bdp_multiple: float,
) -> int:
    """Queue capacity of ``buffer_bdp_multiple`` path BDPs with a sane floor.

    The sizing rule of every bottleneck, the dumbbell's included
    (:meth:`DumbbellConfig.bottleneck_buffer_bytes`): sizing on the
    path round-trip time rather than the single hop's delay keeps small
    bottlenecks from degenerating to a couple-of-packets buffer.
    """
    bdp_bytes = bandwidth_bps * path_rtt_s / 8.0
    return max(int(buffer_bdp_multiple * bdp_bytes), 4 * 1600)


def dumbbell_topology(config: Optional[DumbbellConfig] = None, **overrides) -> TopologySpec:
    """The §5.1 single-bottleneck dumbbell as a :class:`TopologySpec`."""
    if config is None:
        config = DumbbellConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a DumbbellConfig or keyword overrides, not both")
    return TopologySpec(
        kind="dumbbell",
        routers=("left", "right"),
        links=(
            LinkSpec(
                "left",
                "right",
                config.bottleneck_bandwidth_bps,
                config.bottleneck_delay_s,
                buffer_bytes=config.bottleneck_buffer_bytes(),
            ),
        ),
        sender_routers=("left",),
        receiver_routers=("right",),
        access_bandwidth_bps=config.access_bandwidth_bps,
        access_delay_s=config.access_delay_s,
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
    if hops < 1:
        raise ValueError("parking lot needs at least one bottleneck hop")
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
    if arms < 1:
        raise ValueError("star needs at least one arm")
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
    router runs its own group manager, so this is the shape the columnar
    population engine spreads a very large audience over: one packet copy
    crosses the bottleneck, ``edges`` copies leave the core — receivers
    behind each edge still share a single access interface per block.
    """
    if edges < 1:
        raise ValueError("multi-edge dumbbell needs at least one edge router")
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
    if regions < 1:
        raise ValueError("sharded dumbbell needs at least one region")
    if edges_per_region < 1:
        raise ValueError("sharded dumbbell needs at least one edge per region")
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
    if depth < 2:
        raise ValueError("binary tree needs depth >= 2")
    count = 2**depth - 1
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
    return factory(**params)
