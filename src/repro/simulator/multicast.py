"""Multicast group membership and forwarding.

The :class:`MulticastRoutingService` is the network-wide view of group
membership: for each group it knows which hosts are currently entitled to
receive the group's traffic.  Routers consult it to decide where to replicate
an incoming multicast packet.  The distribution tree is derived from the
unicast forwarding tables (the union of shortest paths toward the member
hosts), which matches a source-specific tree on the paper's topologies.

Membership changes are requested by edge routers — either their IGMP manager
(unprotected baseline, any host join is honoured) or their SIGMA agent
(protected system, joins require valid keys).  Joins take effect after a
configurable *graft* latency and leaves after a *prune* latency, modelling the
fact that IGMP/PIM signalling is not instantaneous; both default to small
values so that, as in the paper, the access-control slot granularity (not the
routing plane) dominates responsiveness.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .address import GroupAddress
from .engine import Simulator
from .link import Link
from .node import Host, Node, Router
from .packet import PacketPool

__all__ = ["MulticastRoutingService", "MembershipStats"]


class MembershipStats:
    """Counters of membership churn, used by tests and experiments."""

    def __init__(self) -> None:
        self.joins_requested = 0
        self.joins_effective = 0
        self.leaves_requested = 0
        self.leaves_effective = 0


class MulticastRoutingService:
    """Tracks group membership and answers router forwarding queries."""

    def __init__(
        self,
        sim: Simulator,
        graft_delay_s: float = 0.02,
        prune_delay_s: float = 0.02,
    ) -> None:
        if graft_delay_s < 0 or prune_delay_s < 0:
            raise ValueError("graft/prune delays must be non-negative")
        self.sim = sim
        self.graft_delay_s = graft_delay_s
        self.prune_delay_s = prune_delay_s
        self._members: Dict[int, Set[Host]] = {}
        #: Replication tables: group value -> {router name -> rows}, a row
        #: being ``(out link, next hop, next hop is a host)`` — everything a
        #: router needs per copy.  Rebuilt lazily per router after a
        #: membership change invalidates the group's table (an O(1) pop, not
        #: a cache scan).
        self._tables: Dict[int, Dict[str, List[Tuple[Link, Node, bool]]]] = {}
        #: Free-list for the multicast data plane: routers draw replicas
        #: from here and the forwarding plane recycles them when dead.
        self.packet_pool = PacketPool()
        self.stats = MembershipStats()
        #: Optional boundary-event recorder for region-sharded runs
        #: (:mod:`repro.experiments.shard`): when a list is assigned here,
        #: every *effective* membership transition appends
        #: ``(time_s, group_value, host_name, +1 | -1)``.  ``None`` (the
        #: default) keeps the join/leave hot path allocation-free.
        self.membership_log: Optional[List[Tuple[float, int, str, int]]] = None
        #: Group value -> callbacks run when the group gains its first member
        #: (:meth:`on_first_member`).
        self._first_member_hooks: Dict[int, List[Callable[[GroupAddress], None]]] = {}

    # ------------------------------------------------------------------
    # membership queries
    # ------------------------------------------------------------------
    def members(self, group: GroupAddress) -> Set[Host]:
        """Hosts currently receiving ``group`` (a copy; safe to mutate)."""
        return set(self._members.get(int(group), set()))

    def has_members(self, group: GroupAddress) -> bool:
        """True when ``group`` has at least one member (no set copy).

        The senders call this once per prospective packet of a live group,
        so it must stay allocation-free.
        """
        return bool(self._members.get(group.value))

    def member_population(self, group: GroupAddress) -> int:
        """Receivers currently served by ``group``, cohort-aware.

        Each member host counts as its :attr:`~repro.simulator.node.Host.population`
        (1 for ordinary hosts, N for a cohort host), so this is the number of
        *end systems* receiving the group — the quantity the paper's scaling
        claims are about — while :meth:`members` stays the number of
        forwarding interfaces.
        """
        return sum(
            getattr(host, "population", 1)
            for host in self._members.get(int(group), ())
        )

    def is_member(self, host: Host, group: GroupAddress) -> bool:
        """True when ``host`` currently receives ``group``."""
        return host in self._members.get(int(group), set())

    def groups_of(self, host: Host) -> List[GroupAddress]:
        """All groups the host currently belongs to."""
        return [
            GroupAddress(value)
            for value, members in self._members.items()
            if host in members
        ]

    # ------------------------------------------------------------------
    # membership changes
    # ------------------------------------------------------------------
    def on_first_member(
        self, group: GroupAddress, callback: Callable[[GroupAddress], None]
    ) -> None:
        """Run ``callback(group)`` whenever ``group`` goes from zero members to one.

        The one place the service calls up into a protocol: a layered sender
        keeps the packet clock of a memberless group out of the engine and
        needs to hear when to put it back.  Callbacks run inside the effective
        join, after the group's replication table is invalidated, in
        registration order; they must be picklable (bound methods) because the
        service is part of every scenario checkpoint.
        """
        self._first_member_hooks.setdefault(group.value, []).append(callback)

    def join(self, host: Host, group: GroupAddress, immediate: bool = False) -> None:
        """Add ``host`` to ``group`` after the graft latency."""
        self.stats.joins_requested += 1
        if immediate or self.graft_delay_s == 0:
            self._do_join(host, group)
        else:
            self.sim.call_after(self.graft_delay_s, self._do_join, host, group)

    def leave(self, host: Host, group: GroupAddress, immediate: bool = False) -> None:
        """Remove ``host`` from ``group`` after the prune latency."""
        self.stats.leaves_requested += 1
        if immediate or self.prune_delay_s == 0:
            self._do_leave(host, group)
        else:
            self.sim.call_after(self.prune_delay_s, self._do_leave, host, group)

    def leave_all(self, host: Host, immediate: bool = True) -> None:
        """Remove a host from every group (used at session teardown)."""
        for group in self.groups_of(host):
            self.leave(host, group, immediate=immediate)

    def _do_join(self, host: Host, group: GroupAddress) -> None:
        members = self._members.setdefault(int(group), set())
        if host not in members:
            members.add(host)
            self.stats.joins_effective += 1
            if self.membership_log is not None:
                self.membership_log.append((self.sim.now, int(group), host.name, 1))
            self._invalidate(group)
            if len(members) == 1:
                for callback in self._first_member_hooks.get(group.value, ()):
                    callback(group)

    def _do_leave(self, host: Host, group: GroupAddress) -> None:
        members = self._members.get(int(group))
        if members and host in members:
            members.remove(host)
            self.stats.leaves_effective += 1
            if self.membership_log is not None:
                self.membership_log.append((self.sim.now, int(group), host.name, -1))
            self._invalidate(group)

    def _invalidate(self, group: GroupAddress) -> None:
        """Drop the group's replication table after a membership change."""
        self._tables.pop(group.value, None)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def out_links(self, router: Router, group: GroupAddress) -> List[Link]:
        """Outgoing links on which ``router`` must replicate ``group`` traffic.

        The deduplicated set of next-hop links from ``router`` toward every
        current member host, in replication order (see :meth:`out_rows`).
        """
        return [row[0] for row in self.out_rows(router, group)]

    def out_rows(self, router: Router, group: GroupAddress) -> List[Tuple[Link, Node, bool]]:
        """:meth:`out_links` as cached ``(link, next_hop, is_host)`` rows.

        The router's per-packet lookup, precomputed per (group, router) and
        invalidated only by an effective IGMP/SIGMA join or leave — never
        recomputed per packet.  The next hop (to skip the branch a packet
        came from) and whether it is a local interface ride with the link
        instead of being re-derived for every copy.
        """
        value = group.value
        table = self._tables.get(value)
        if table is None:
            table = {}
            self._tables[value] = table
        else:
            cached = table.get(router.name)
            if cached is not None:
                return cached
        rows: List[Tuple[Link, Node, bool]] = []
        seen: set[int] = set()
        # Member sets hash hosts by identity, so raw set order varies between
        # processes; replicating in address order keeps packet interleaving —
        # and therefore drop patterns — byte-identical across runs and across
        # the serial and process-pool experiment runner paths.
        members = sorted(self._members.get(value, ()), key=lambda h: int(h.address))
        for host in members:
            link = router.route_for(host.address)
            if link is None:
                continue
            if id(link) not in seen:
                seen.add(id(link))
                rows.append((link, link.dst, isinstance(link.dst, Host)))
        table[router.name] = rows
        return rows

    # ------------------------------------------------------------------
    def groups(self) -> Iterable[GroupAddress]:
        """Every group with at least one member."""
        return [GroupAddress(value) for value, members in self._members.items() if members]
