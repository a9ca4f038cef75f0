"""Packet-header field names shared by the multicast congestion control code.

Keeping the header vocabulary in one place avoids subtle typos between the
senders (which write the headers), the receivers (which read them) and the
tests (which assert on them).
"""

from __future__ import annotations

__all__ = [
    "SESSION",
    "GROUP",
    "SLOT",
    "GROUP_SEQ",
    "UPGRADE_GROUPS",
    "COMPONENT",
    "DECREASE",
    "CLOSING",
]

#: Session identifier (string) the packet belongs to.
SESSION = "flid_session"
#: 1-based group (layer) index within the session.
GROUP = "flid_group"
#: Sender-side time-slot index during which the packet was transmitted.
SLOT = "flid_slot"
#: Monotonic per-group sequence number (for loss detection).
GROUP_SEQ = "flid_group_seq"
#: Tuple of group indices whose upgrade the protocol authorises.  For FLID-DL
#: the authorisation applies to the end of the current slot; for FLID-DS it
#: applies to the governed slot (current + 2), matching the key pipeline.
UPGRADE_GROUPS = "flid_upgrade_groups"

#: DELTA component field (FLID-DS only).
COMPONENT = "delta_component"
#: DELTA decrease field (FLID-DS only).
DECREASE = "delta_decrease"
#: True on the packet whose component closes the group's XOR sum for the slot.
CLOSING = "delta_closing"
