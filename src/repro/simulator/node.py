"""Nodes: hosts and routers.

The forwarding plane is deliberately protocol-agnostic (the paper's
Requirement 3): routers know only how to forward unicast packets toward a
destination address and how to replicate multicast packets along the group's
distribution tree.  All congestion-control and key-management intelligence
lives in *agents* attached to hosts and in *group managers* attached to edge
routers (plain IGMP for the unprotected baseline, SIGMA for the protected
system).

``Host``
    End system.  Applications/transport agents register with the host and
    receive packets addressed to them.  Hosts reach the network through one
    access link to their edge router and exchange group-management messages
    with that router over a :class:`ControlChannel`.

``Router``
    Forwards unicast packets using a destination-indexed table and multicast
    packets using the network's :class:`~repro.simulator.multicast.MulticastRoutingService`.
    An *edge* router additionally owns a group manager that decides, per local
    interface, whether group traffic is forwarded to the attached host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .address import GroupAddress, NodeAddress
from .engine import Simulator
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .multicast import MulticastRoutingService

__all__ = ["Node", "Host", "Router", "ControlChannel", "PacketAgent"]


class PacketAgent:
    """Base class for anything that consumes packets at a host.

    Transport endpoints (TCP sinks, FLID-DL receivers, CBR sinks) subclass
    this.  The only required method is :meth:`handle_packet`.
    """

    def handle_packet(self, packet: Packet) -> None:  # pragma: no cover - interface
        """Consume one delivered packet (must not retain it past the call)."""
        raise NotImplementedError


class ControlChannel:
    """Reliable low-latency control path between a host and its edge router.

    IGMP membership reports and SIGMA session-join / subscription /
    unsubscription messages travel over the local access link only.  The
    paper assumes they are made reliable by acknowledgement and
    retransmission (§3.2.2), so this reproduction models them as reliable
    deliveries delayed by the access link's propagation delay rather than as
    loss-prone queued packets.  Message counts and byte estimates are still
    recorded so the overhead accounting can include them.
    """

    def __init__(self, sim: Simulator, delay_s: float) -> None:
        self.sim = sim
        self.delay_s = delay_s
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(self, handler: Callable[..., None], *args: Any, size_bytes: int = 64) -> None:
        """Deliver ``handler(*args)`` after the channel delay."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.sim.schedule(self.delay_s, handler, *args)


class Node:
    """Common base of hosts and routers."""

    def __init__(self, sim: Simulator, name: str, address: NodeAddress) -> None:
        self.sim = sim
        self.name = name
        self.address = address
        #: Outgoing links keyed by neighbour node name.
        self.links: dict[str, Link] = {}
        #: Unicast forwarding table: destination address value -> outgoing link.
        self.routes: dict[int, Link] = {}
        self.default_route: Optional[Link] = None
        self.packets_received = 0
        self.packets_forwarded = 0

    def attach_link(self, link: Link) -> None:
        """Register an outgoing link (called by the topology builder)."""
        self.links[link.dst.name] = link

    def route_for(self, destination: NodeAddress) -> Optional[Link]:
        """Next-hop link for a unicast destination (or the default route)."""
        return self.routes.get(int(destination), self.default_route)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:  # pragma: no cover
        """Accept a packet delivered by ``link`` (None for direct injection)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """End system that sources and sinks traffic."""

    def __init__(self, sim: Simulator, name: str, address: NodeAddress) -> None:
        super().__init__(sim, name, address)
        self._agents: dict[Any, PacketAgent] = {}
        self._group_agents: dict[int, list[PacketAgent]] = {}
        #: Edge router this host hangs off (set by the topology builder).
        self.edge_router: Optional["Router"] = None
        #: Control channel to the edge router's group manager.
        self.control: Optional[ControlChannel] = None
        #: Number of end systems this host stands for.  Ordinary hosts are 1;
        #: a cohort host aggregates N homogeneous receivers behind one edge
        #: interface, and membership/overhead accounting weights it as N while
        #: the forwarding plane still treats it as a single interface.
        self.population: int = 1

    # ------------------------------------------------------------------
    # agent registration
    # ------------------------------------------------------------------
    def register_agent(self, key: Any, agent: PacketAgent) -> None:
        """Register a unicast agent under ``key`` (usually a port number)."""
        if key in self._agents:
            raise ValueError(f"agent key {key!r} already registered on {self.name}")
        self._agents[key] = agent

    def register_group_agent(self, group: GroupAddress, agent: PacketAgent) -> None:
        """Register an agent interested in packets of a multicast group."""
        self._group_agents.setdefault(int(group), []).append(agent)

    # ------------------------------------------------------------------
    # sending and receiving
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Hand a locally generated packet to the network."""
        if packet.multicast:
            link = self.default_route
        else:
            link = self.routes.get(packet.dest_key, self.default_route)
        if link is None:
            # A host always has exactly one uplink in the paper's topologies;
            # fall back to it for multicast or unrouted destinations.
            if not self.links:
                raise RuntimeError(f"host {self.name} has no attached links")
            link = next(iter(self.links.values()))
        return link.send(packet)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:
        """Dispatch a delivered packet to the registered agent(s).

        A multicast packet goes to every agent of its group; the agents share
        it and may keep it, since nothing writes a packet once it is sent.
        """
        self.packets_received += 1
        if packet.multicast:
            agents = self._group_agents.get(packet.dest_key)
            if agents:
                for agent in agents:
                    agent.handle_packet(packet)
            return
        key = packet.headers.get("port")
        agent = self._agents.get(key)
        if agent is None:
            agent = self._agents.get(packet.protocol)
        if agent is not None:
            agent.handle_packet(packet)
        # Packets with no matching agent are silently discarded, mirroring a
        # closed port; tests assert on counters rather than exceptions.


class Router(Node):
    """Store-and-forward router with unicast and multicast forwarding."""

    def __init__(self, sim: Simulator, name: str, address: NodeAddress) -> None:
        super().__init__(sim, name, address)
        #: Set by the topology builder; provides multicast out-link lookups.
        self.multicast_service: Optional["MulticastRoutingService"] = None
        #: Group manager (IGMP or SIGMA agent) present only on edge routers.
        self.group_manager: Optional[Any] = None
        self.multicast_packets_forwarded = 0
        self.multicast_copies_sent = 0

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Optional[Link]) -> None:
        """Forward a packet: unicast by destination key, multicast by fan-out."""
        self.packets_received += 1
        if packet.multicast:
            self._forward_multicast(packet, link)
        else:
            self._forward_unicast(packet)

    # ------------------------------------------------------------------
    def _forward_unicast(self, packet: Packet) -> None:
        out = self.routes.get(packet.dest_key, self.default_route)
        if out is None:
            return  # no route: drop silently (counted by tests via link stats)
        self.packets_forwarded += 1
        out.send(packet)

    def _forward_multicast(self, packet: Packet, incoming: Optional[Link]) -> None:
        """Send ``packet`` down every eligible branch of the group's tree.

        The last eligible branch takes the incoming packet itself; only the
        branches before it get a :meth:`~repro.simulator.packet.Packet.replicate`
        (shared headers), in out-link order.  With individual receivers
        almost every fan-out is of one, so a hop usually allocates nothing.
        A packet with no eligible branch is dropped.
        """
        service = self.multicast_service
        if service is None:
            return

        intercept = packet.headers.get("sigma_intercept")
        if intercept and self.group_manager is not None:
            handler = getattr(self.group_manager, "handle_control_packet", None)
            if handler is not None:
                handler(packet)

        rows = service.out_rows(self, packet.destination)
        self.multicast_packets_forwarded += 1
        copies = 0
        incoming_src = incoming.src if incoming is not None else None
        last = None  # out-link of the eligible branch still waiting for its packet
        for row in rows:
            if row[1] is incoming_src:
                continue  # never send back toward where the packet came from
            if intercept and row[2]:
                continue  # special packets never reach local interfaces
            if last is not None:
                copies += 1
                last.send(packet.replicate())
            last = row[0]
        if last is None:
            return
        self.multicast_copies_sent += copies + 1
        last.send(packet)
