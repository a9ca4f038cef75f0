"""SIGMA edge-router agent.

The agent replaces IGMP at a protected edge router (§3.2.3) and implements
the two SIGMA tasks of §3.2:

1. **Key acquisition** — intercept the sender's special packets, reassemble
   (and FEC-decode when needed) the per-slot key announcements, and store the
   address-key tuples in the :class:`~repro.core.sigma.key_table.RouterKeyTable`.
2. **Group management** — process session-join, subscription and
   unsubscription messages from local receivers, verify submitted keys, and
   at every slot boundary stop forwarding groups for which no valid key (or
   grace window) covers the new slot.

Everything here is protocol-independent: the agent never inspects DELTA
semantics, FLID-DL state or congestion signals — it only matches submitted
keys against announced keys, which is Requirement 3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from ...fec.erasure import ErasureCode, FecConfig
from ...simulator.address import GroupAddress
from ...simulator.multicast import MulticastRoutingService
from ...simulator.node import Host, Router
from ...simulator.packet import Packet
from ..timeslot import SlotClock
from .key_table import RouterKeyTable
from .messages import (
    ANNOUNCEMENT_HEADER,
    KeyAnnouncement,
    SessionJoinMessage,
    SubscriptionMessage,
    UnsubscriptionMessage,
)

__all__ = ["SigmaConfig", "SigmaRouterAgent", "AccessRecord"]


@dataclass
class SigmaConfig:
    """Tunable behaviour of a SIGMA edge router."""

    #: Complete time slots of unrestricted access granted to a new receiver
    #: joining the session's minimal group without a key (§3.2.2).
    session_join_grace_slots: int = 2
    #: Extra slots of unconditional forwarding after a key-validated join of a
    #: group the interface was not yet receiving ("expected group" rule).
    new_group_grace_slots: int = 1
    #: Number of invalid keys from one interface for one (group, slot) that
    #: raises the guessing-attack alarm (§4.2).
    guess_alarm_threshold: int = 8
    #: How many governed slots of key material the router retains.
    retained_slots: int = 6


@dataclass
class AccessRecord:
    """Forwarding state of one (local interface, group) pair."""

    group: GroupAddress
    #: Slots for which a valid key was submitted.
    granted_slots: Set[int] = field(default_factory=set)
    #: Forward unconditionally through the end of this slot (grace windows).
    grace_until_slot: int = -1
    #: Whether the group is currently being forwarded to the interface.
    forwarding: bool = False

    def allows(self, slot: int) -> bool:
        return slot in self.granted_slots or slot <= self.grace_until_slot


class SigmaRouterAgent:
    """Key-based group access control at one edge router."""

    def __init__(
        self,
        router: Router,
        multicast: MulticastRoutingService,
        slot_clock: SlotClock,
        config: Optional[SigmaConfig] = None,
        fec_config: Optional[FecConfig] = None,
    ) -> None:
        self.router = router
        self.multicast = multicast
        self.slot_clock = slot_clock
        self.config = config or SigmaConfig()
        self.key_table = RouterKeyTable(retained_slots=self.config.retained_slots)
        self._erasure = ErasureCode(fec_config or FecConfig())
        #: (host name, group value) -> access record
        self._access: Dict[Tuple[str, int], AccessRecord] = {}
        #: Hosts indexed by name so slot processing can call the multicast service.
        self._hosts: Dict[str, Host] = {}
        #: FEC symbol reassembly buffers: (session, governed slot) -> symbols.
        self._symbol_buffers: Dict[Tuple[str, int], Dict[int, Tuple[int, int]]] = {}
        self._decoded_announcements: Set[Tuple[str, int]] = set()
        # statistics
        self.valid_submissions = 0
        self.invalid_submissions = 0
        self.session_joins = 0
        self.unsubscriptions = 0
        self.revocations = 0
        self.announcements_decoded = 0
        self.igmp_joins_ignored = 0
        self.guess_alarms = 0
        self._guess_counts: Dict[Tuple[str, int, int], int] = {}

        router.group_manager = self
        slot_clock.on_slot_start(self._on_slot_start)

    # ------------------------------------------------------------------
    # key acquisition (special packets)
    # ------------------------------------------------------------------
    def handle_control_packet(self, packet: Packet) -> None:
        """Intercept a SIGMA special packet and absorb its key material."""
        payload = packet.headers.get(ANNOUNCEMENT_HEADER)
        if payload is None:
            return
        if isinstance(payload, KeyAnnouncement):
            self._store_announcement(payload.to_ints())
            return
        # FEC-coded form: a dict with the symbol slice of a serialised
        # announcement plus the metadata needed to decode it.
        session_id = payload["session_id"]
        governed_slot = payload["governed_slot"]
        source_count = payload["source_count"]
        key = (session_id, governed_slot)
        if key in self._decoded_announcements:
            return
        buffer = self._symbol_buffers.setdefault(key, {})
        for index, value in payload["symbols"]:
            buffer.setdefault(index, (index, value))
        if len(buffer) >= source_count:
            try:
                values = self._erasure.decode(list(buffer.values()), source_count)
            except ValueError:
                return
            self._store_announcement(values)
            self._decoded_announcements.add(key)
            del self._symbol_buffers[key]

    def _store_announcement(self, values: Sequence[int]) -> None:
        """Absorb a serialised announcement, whichever form it travelled in."""
        self.key_table.store_announcement(values)
        self.announcements_decoded += 1

    # ------------------------------------------------------------------
    # receiver-facing messages
    # ------------------------------------------------------------------
    def handle_session_join(self, host: Host, message: SessionJoinMessage) -> None:
        """Admit a new receiver to the minimal group without a key (§3.2.2).

        A cohort interface joins once on behalf of ``message.member_count``
        receivers; the admission work (grace window, forwarding state) is per
        interface, so its cost does not grow with the population.
        """
        self.session_joins += message.member_count
        self._hosts[host.name] = host
        record = self._record_for(host, message.minimal_group)
        grace = self.slot_clock.current_slot + self.config.session_join_grace_slots
        record.grace_until_slot = max(record.grace_until_slot, grace)
        self._start_forwarding(host, record)

    def handle_subscription(self, host: Host, message: SubscriptionMessage) -> None:
        """Verify each (group, key) pair and extend access for valid ones.

        Key verification is amortised per interface: each pair is matched
        against the key table exactly once, and the delivery is booked for
        the ``message.member_count`` receivers the interface represents —
        the submission counters therefore track *receivers served*, matching
        what the same population of individual hosts would produce.
        """
        self._hosts[host.name] = host
        members = message.member_count
        for group, key in message.pairs:
            if self.key_table.accepts(message.slot, group, key):
                self.valid_submissions += members
                record = self._record_for(host, group)
                record.granted_slots.add(message.slot)
                if not record.forwarding:
                    grace = message.slot + self.config.new_group_grace_slots
                    record.grace_until_slot = max(record.grace_until_slot, grace)
                    self._start_forwarding(host, record)
            else:
                self.invalid_submissions += members
                self._note_invalid(host, group, message.slot)

    def handle_unsubscription(self, host: Host, message: UnsubscriptionMessage) -> None:
        """Stop forwarding the listed groups to the interface immediately."""
        self.unsubscriptions += 1
        for group in message.groups:
            record = self._access.get((host.name, int(group)))
            if record is not None and record.forwarding:
                self._stop_forwarding(host, record)

    # Legacy IGMP entry points: a SIGMA router ignores bare IGMP reports, which
    # is precisely what blocks the Figure 1 attack at protected edges.
    def handle_join(
        self,
        host: Host,
        group: GroupAddress,
        members: Optional[int] = None,
        enact: bool = True,
    ) -> None:
        """Ignore a bare IGMP join (``members`` = send-time report weight)."""
        self.igmp_joins_ignored += (
            members if members is not None else getattr(host, "population", 1)
        )

    def handle_leave(
        self,
        host: Host,
        group: GroupAddress,
        members: Optional[int] = None,
        enact: bool = True,
    ) -> None:
        """Honour a leave; a churn report (``enact=False``) is accounting-only."""
        if not enact:
            return
        record = self._access.get((host.name, int(group)))
        if record is not None and record.forwarding:
            self._stop_forwarding(host, record)

    # ------------------------------------------------------------------
    # slot-boundary enforcement
    # ------------------------------------------------------------------
    def _on_slot_start(self, slot: int) -> None:
        """Revoke forwarding for every (interface, group) lacking access in ``slot``."""
        for (host_name, group_value), record in list(self._access.items()):
            if not record.forwarding:
                continue
            if record.allows(slot):
                continue
            host = self._hosts.get(host_name)
            if host is None:
                continue
            self._stop_forwarding(host, record)
            # One revocation event per represented receiver, so the counter
            # reads the same whether the population is aggregated or not.
            self.revocations += getattr(host, "population", 1)
        self.key_table.prune_for_current_slot(slot)
        self._prune_access(slot)

    def _prune_access(self, slot: int) -> None:
        horizon = slot - self.config.retained_slots
        for record in self._access.values():
            record.granted_slots = {s for s in record.granted_slots if s >= horizon}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _record_for(self, host: Host, group: GroupAddress) -> AccessRecord:
        key = (host.name, int(group))
        record = self._access.get(key)
        if record is None:
            record = AccessRecord(group=group)
            self._access[key] = record
        return record

    def _start_forwarding(self, host: Host, record: AccessRecord) -> None:
        if not record.forwarding:
            record.forwarding = True
            self.multicast.join(host, record.group)

    def _stop_forwarding(self, host: Host, record: AccessRecord) -> None:
        if record.forwarding:
            record.forwarding = False
            self.multicast.leave(host, record.group)

    def _note_invalid(self, host: Host, group: GroupAddress, slot: int) -> None:
        key = (host.name, int(group), slot)
        self._guess_counts[key] = self._guess_counts.get(key, 0) + 1
        if self._guess_counts[key] == self.config.guess_alarm_threshold:
            self.guess_alarms += 1

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------
    def is_forwarding(self, host: Host, group: GroupAddress) -> bool:
        record = self._access.get((host.name, int(group)))
        return bool(record and record.forwarding)

    def forwarded_groups(self, host: Host) -> list[GroupAddress]:
        return [
            record.group
            for (host_name, _), record in self._access.items()
            if host_name == host.name and record.forwarding
        ]
