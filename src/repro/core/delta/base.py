"""Artefacts of the DELTA key distribution.

The layered instantiation (Figure 4, :mod:`repro.core.delta.layered`)
produces three kinds of artefacts:

* a set of per-group **keys** for the governed time slot (top, decrease and
  optionally increase keys, Figure 3);
* per-packet **fields** (component and decrease fields) through which
  receivers reconstruct exactly the keys their congestion status entitles
  them to;
* a receiver-side **reconstruction** step that turns the fields gathered
  during a slot, plus the receiver's congestion status and the protocol's
  upgrade authorisation, into the set of keys to submit to the edge router.

This module defines those artefacts as small dataclasses.  SIGMA consumes
only ``SlotKeyMaterial`` (the address-to-keys tuples) and never looks inside
the instantiation, which is what keeps the edge-router code generic
(Requirement 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "GroupKeys",
    "SlotKeyMaterial",
    "DeltaPacketFields",
    "ReceiverSlotObservation",
    "ReconstructionResult",
]


@dataclass(frozen=True)
class GroupKeys:
    """Keys guarding one group for one governed slot.

    Any one of the non-``None`` keys opens access to the group (§3.1.1: "an
    idea of guarding a group with multiple keys such that any of these keys
    opens access to the group").
    """

    top: Optional[int] = None
    decrease: Optional[int] = None
    increase: Optional[int] = None

    def valid_keys(self) -> List[int]:
        """All keys that an edge router should accept for this group."""
        return [key for key in (self.top, self.decrease, self.increase) if key is not None]

    def accepts(self, submitted: int) -> bool:
        """True when ``submitted`` matches any of the group's keys."""
        return submitted in self.valid_keys()


@dataclass
class SlotKeyMaterial:
    """All keys of a session for one governed slot.

    ``keys[g]`` (1-indexed group number) holds the :class:`GroupKeys` of
    group ``g``.  ``upgrade_authorized`` lists the groups for which the
    protocol authorises an upgrade in the governed slot (the set the sender
    drew when it generated the material).
    """

    governed_slot: int
    keys: Dict[int, GroupKeys] = field(default_factory=dict)
    upgrade_authorized: frozenset[int] = frozenset()

    @property
    def group_count(self) -> int:
        return len(self.keys)

    def accepts(self, group: int, submitted: int) -> bool:
        """Does ``submitted`` open ``group`` in this slot?"""
        keys = self.keys.get(group)
        return keys is not None and keys.accepts(submitted)


@dataclass(frozen=True)
class DeltaPacketFields:
    """Per-packet DELTA fields attached by the sender.

    ``component`` contributes to the top/increase keys of the packet's group
    and all higher groups; ``decrease`` (present on groups 2..N) carries the
    decrease key of the group below.  ``closing`` marks the last packet of
    the group in the slot, whose component closes the XOR sum (Figure 4's
    real-time generation).
    """

    group: int
    component: int
    decrease: Optional[int] = None
    closing: bool = False

    def field_bits(self, key_bits: int) -> int:
        """Number of overhead bits these fields add to the packet."""
        bits = key_bits
        if self.decrease is not None:
            bits += key_bits
        return bits


@dataclass
class ReceiverSlotObservation:
    """What a receiver observed during one distribution slot.

    ``components[g]`` is the list of component fields received from group
    ``g`` and ``decrease_fields[g]`` the (identical) decrease field values
    seen on group ``g`` packets.  ``lost_groups`` are subscribed groups in
    which the receiver detected at least one loss; ``received_all`` per group
    is needed because top keys require *every* component.
    """

    subscription_level: int
    components: Dict[int, List[int]] = field(default_factory=dict)
    decrease_fields: Dict[int, List[int]] = field(default_factory=dict)
    lost_groups: frozenset[int] = frozenset()
    upgrade_authorized: frozenset[int] = frozenset()

    @property
    def congested(self) -> bool:
        """Single-loss congestion definition used by FLID-DL/RLC (§3.1.1)."""
        return bool(self.lost_groups)


@dataclass
class ReconstructionResult:
    """Outcome of the receiver-side DELTA algorithm for one slot.

    ``next_level`` is the subscription level the receiver is entitled to in
    the governed slot (``0`` means it holds no keys at all) and ``keys[g]``
    the key it will submit for each group ``1..next_level``.
    """

    next_level: int
    keys: Dict[int, int] = field(default_factory=dict)

    def submitted_pairs(self) -> List[tuple[int, int]]:
        """(group, key) pairs ordered by group number."""
        return sorted(self.keys.items())
