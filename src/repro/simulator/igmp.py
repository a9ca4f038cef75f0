"""IGMP-style group management (the unprotected baseline).

The Internet Group Management Protocol lets any receiver join any multicast
group whose address it knows; the edge router honours every membership
report.  This is exactly the weakness the paper exploits in its motivating
experiment (Figure 1): a misbehaving FLID-DL receiver simply IGMP-joins every
group of its session and inflates its subscription.

Two classes are provided:

``IgmpGroupManager``
    Lives at an edge router.  Grants every join/leave request it receives on
    a local interface by updating the network-wide
    :class:`~repro.simulator.multicast.MulticastRoutingService`.

``IgmpHostInterface``
    Lives at a host; sends membership reports to the host's edge router over
    the control channel.  Multicast receivers (well-behaved or misbehaving)
    call :meth:`join` and :meth:`leave` on it.

SIGMA (:mod:`repro.core.sigma`) replaces ``IgmpGroupManager`` at protected
edge routers while keeping the same host-facing message surface, which is
how the paper describes incremental deployment (§3.2.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from .address import GroupAddress
from .multicast import MulticastRoutingService
from .node import Host, Router

__all__ = ["IgmpGroupManager", "IgmpHostInterface", "install_igmp"]


class IgmpGroupManager:
    """Edge-router side of IGMP: honour every join and leave."""

    #: Approximate size of an IGMP membership report on the wire, used only
    #: for control-overhead accounting.
    REPORT_SIZE_BYTES = 32

    def __init__(self, router: Router, multicast: MulticastRoutingService) -> None:
        self.router = router
        self.multicast = multicast
        self.joins_handled = 0
        self.leaves_handled = 0
        #: Per-host view of granted memberships (for tests / introspection).
        self.memberships: Dict[str, Set[int]] = {}
        router.group_manager = self

    # ------------------------------------------------------------------
    def handle_join(
        self,
        host: Host,
        group: GroupAddress,
        members: Optional[int] = None,
        enact: bool = True,
    ) -> None:
        """Grant a membership report unconditionally.

        A join from a cohort host stands for the joins of its whole
        population, so the counter advances by ``members`` — the weight the
        sending interface stamped on the report at *send* time (falling
        back to the host's population for direct calls), so a report in
        flight across a churn boundary still books the membership it
        represented when sent.

        ``enact=False`` marks a *churn report*: ``members`` new cohort
        members adopted a group the interface already receives.  Only the
        join ledger advances — the forwarding state is governed by the
        cohort's own ordinary membership reports.
        """
        if members is None:
            members = getattr(host, "population", 1)
        self.joins_handled += members
        if enact:
            self.memberships.setdefault(host.name, set()).add(int(group))
            self.multicast.join(host, group)

    def handle_leave(
        self,
        host: Host,
        group: GroupAddress,
        members: Optional[int] = None,
        enact: bool = True,
    ) -> None:
        """Process a leave report (send-time weighted like joins).

        ``enact=False`` marks a churn report: ``members`` cohort members
        left a group the remaining cohort keeps receiving, so only the
        ledger moves — the interface's forwarding state is untouched.
        """
        if members is None:
            members = getattr(host, "population", 1)
        self.leaves_handled += members
        if enact:
            self.memberships.setdefault(host.name, set()).discard(int(group))
            self.multicast.leave(host, group)

    def handle_control_packet(self, packet) -> None:
        """IGMP ignores SIGMA special packets (incremental-deployment case)."""
        return None


class IgmpHostInterface:
    """Host side of IGMP: emit join/leave reports toward the edge router."""

    def __init__(self, host: Host) -> None:
        if host.edge_router is None or host.control is None:
            raise RuntimeError(
                f"host {host.name} is not attached to an edge router; "
                "attach it before creating an IGMP interface"
            )
        self.host = host
        self.joined: Set[int] = set()

    # ------------------------------------------------------------------
    def join(self, group: GroupAddress, members: Optional[int] = None) -> None:
        """Send a membership report for ``group``.

        With ``members`` set the report is a cohort *churn report*: it books
        ``members`` additional members adopting the group (arrival
        accounting) without changing the interface's own membership — see
        :meth:`IgmpGroupManager.handle_join`.
        """
        if members is None:
            self.joined.add(int(group))
        self._send_report(self._manager().handle_join, group, members)

    def leave(self, group: GroupAddress, members: Optional[int] = None) -> None:
        """Send a leave report for ``group`` (churn report with ``members``)."""
        if members is None:
            self.joined.discard(int(group))
        self._send_report(self._manager().handle_leave, group, members)

    def _send_report(self, handler, group: GroupAddress, members: Optional[int]) -> None:
        """One report over the control channel.

        Ordinary reports stamp the interface's population at *send* time
        (so a churn boundary crossed in flight cannot re-weight them, the
        same send-time semantics SIGMA messages have always had); churn
        reports carry their explicit member delta and are accounting-only.
        """
        if members is None:
            weight = getattr(self.host, "population", 1)
            args = (self.host, group, weight, True)
        else:
            args = (self.host, group, members, False)
        self.host.control.send(
            handler, *args, size_bytes=IgmpGroupManager.REPORT_SIZE_BYTES
        )

    # ------------------------------------------------------------------
    def _manager(self):
        manager = self.host.edge_router.group_manager
        if manager is None:
            raise RuntimeError(
                f"edge router {self.host.edge_router.name} has no group manager"
            )
        return manager


def install_igmp(router: Router, multicast: MulticastRoutingService) -> IgmpGroupManager:
    """Attach an IGMP group manager to an edge router and return it."""
    return IgmpGroupManager(router, multicast)
