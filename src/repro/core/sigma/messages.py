"""SIGMA message formats.

Figure 6 of the paper defines the three messages receivers send to their edge
router, and §3.2.1 describes the special packets through which the sender
distributes per-slot keys to edge routers.  This module defines all of them
as dataclasses plus the integer serialisation used when key announcements are
FEC-protected.

Receiver → edge router (Figure 6):

* :class:`SessionJoinMessage` — the address of the session's minimal group;
  grants two slots of unrestricted access so a new receiver can bootstrap.
* :class:`SubscriptionMessage` — a time slot plus ``(group address, key)``
  pairs; the router verifies each key before forwarding the group during
  that slot.
* :class:`UnsubscriptionMessage` — addresses of abandoned groups.

Sender → edge routers (§3.2.1):

* :class:`KeyAnnouncement` — for one governed slot, the tuple
  ``(group address, top key, decrease key, increase key)`` for every group in
  the session.  Serialisable to a flat list of field-sized integers so it can
  be spread across FEC-coded special packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ...simulator.address import GroupAddress
from ..delta.base import GroupKeys, SlotKeyMaterial

__all__ = [
    "SessionJoinMessage",
    "SubscriptionMessage",
    "UnsubscriptionMessage",
    "KeyAnnouncementEntry",
    "KeyAnnouncement",
    "ANNOUNCEMENT_HEADER",
    "ABSENT_KEY",
]

#: Packet-header key under which announcement payloads travel.
ANNOUNCEMENT_HEADER = "sigma_announcement"

#: Sentinel used in the integer serialisation for "key absent".
ABSENT_KEY = 0xFFFF_FFFF


@dataclass(frozen=True)
class SessionJoinMessage:
    """Figure 6(a): request key-less admission to the session's minimal group.

    ``member_count`` is the number of receivers the sending interface
    represents: 1 for an ordinary host, N for a host whose receiver stands
    for N homogeneous members behind one edge interface.
    """

    session_id: str
    minimal_group: GroupAddress
    member_count: int = 1

    def size_bytes(self) -> int:
        """Approximate wire size (session tag + one group address)."""
        return 8 + 4


@dataclass(frozen=True)
class SubscriptionMessage:
    """Figure 6(b): per-slot subscription with one key per requested group.

    A cohort interface submits each (group, key) pair once on behalf of
    ``member_count`` receivers; the edge router verifies the key once and
    books the delivery for the whole population (§3.2's per-interface model
    — the router never needed per-receiver state behind an interface).
    """

    session_id: str
    slot: int
    pairs: Tuple[Tuple[GroupAddress, int], ...]
    member_count: int = 1

    def size_bytes(self, key_bits: int = 16) -> int:
        """Approximate wire size: slot number plus (address, key) pairs."""
        return 8 + 2 + len(self.pairs) * (4 + max(1, key_bits // 8))

    def groups(self) -> List[GroupAddress]:
        return [group for group, _ in self.pairs]


@dataclass(frozen=True)
class UnsubscriptionMessage:
    """Figure 6(c): explicit, immediate departure from the listed groups."""

    session_id: str
    groups: Tuple[GroupAddress, ...]

    def size_bytes(self) -> int:
        return 8 + len(self.groups) * 4


@dataclass(frozen=True)
class KeyAnnouncementEntry:
    """One (group address, keys) tuple of a key announcement."""

    group: GroupAddress
    keys: GroupKeys

    def to_ints(self) -> List[int]:
        """Serialise to four integers: address, top, decrease, increase."""
        return [
            int(self.group),
            self.keys.top if self.keys.top is not None else ABSENT_KEY,
            self.keys.decrease if self.keys.decrease is not None else ABSENT_KEY,
            self.keys.increase if self.keys.increase is not None else ABSENT_KEY,
        ]

    @classmethod
    def from_ints(cls, values: Sequence[int]) -> "KeyAnnouncementEntry":
        if len(values) != 4:
            raise ValueError(f"expected 4 integers per entry, got {len(values)}")
        address, top, decrease, increase = values
        return cls(
            group=GroupAddress(address),
            keys=GroupKeys(
                top=None if top == ABSENT_KEY else top,
                decrease=None if decrease == ABSENT_KEY else decrease,
                increase=None if increase == ABSENT_KEY else increase,
            ),
        )


@dataclass
class KeyAnnouncement:
    """All address-key tuples of one session for one governed slot."""

    session_id: str
    governed_slot: int
    entries: List[KeyAnnouncementEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_material(
        cls,
        session_id: str,
        material: SlotKeyMaterial,
        group_addresses: Sequence[GroupAddress],
    ) -> "KeyAnnouncement":
        """Build an announcement from DELTA key material.

        ``group_addresses[g-1]`` is the multicast address of group ``g``.
        """
        if len(group_addresses) < material.group_count:
            raise ValueError(
                "not enough group addresses for the key material "
                f"({len(group_addresses)} < {material.group_count})"
            )
        entries = [
            KeyAnnouncementEntry(group=group_addresses[g - 1], keys=material.keys[g])
            for g in sorted(material.keys)
        ]
        return cls(session_id=session_id, governed_slot=material.governed_slot, entries=entries)

    # ------------------------------------------------------------------
    def to_ints(self) -> List[int]:
        """Flat integer serialisation: [slot, n_entries, entry fields...]."""
        values: List[int] = [self.governed_slot, len(self.entries)]
        for entry in self.entries:
            values.extend(entry.to_ints())
        return values

    @staticmethod
    def frame(values: Sequence[int]) -> Tuple[int, int]:
        """Check the framing of a :meth:`to_ints` list; return ``(slot, entry count)``."""
        if len(values) < 2:
            raise ValueError("announcement serialisation too short")
        slot, count = values[0], values[1]
        expected = 2 + count * 4
        if len(values) < expected:
            raise ValueError(
                f"announcement serialisation truncated: need {expected} ints, got {len(values)}"
            )
        return slot, count

    @classmethod
    def from_ints(cls, session_id: str, values: Sequence[int]) -> "KeyAnnouncement":
        slot, count = cls.frame(values)
        entries = [
            KeyAnnouncementEntry.from_ints(values[2 + i * 4 : 6 + i * 4])
            for i in range(count)
        ]
        return cls(session_id=session_id, governed_slot=slot, entries=entries)

    # ------------------------------------------------------------------
    def payload_bits(self, key_bits: int = 16, slot_bits: int = 8) -> int:
        """Bits of key material carried, per the §5.4 overhead model.

        Each tuple carries a 32-bit group address, a top key, a decrease key
        for all but the last group, and an increase key when present.
        """
        bits = slot_bits
        for index, entry in enumerate(self.entries):
            bits += 32  # multicast address
            if entry.keys.top is not None:
                bits += key_bits
            if entry.keys.decrease is not None:
                bits += key_bits
            if entry.keys.increase is not None:
                bits += key_bits
        return bits
