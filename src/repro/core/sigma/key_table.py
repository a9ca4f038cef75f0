"""Edge-router key table.

SIGMA edge routers store, for every governed time slot, the set of keys that
open each multicast group (§3.2.1).  The table is deliberately generic — it
knows nothing about which congestion control protocol produced the keys, only
that a submitted key either matches one of the stored keys for (slot, group)
or it does not (Requirement 3).

Old slots are pruned as the slot clock advances so the table stays bounded by
``groups × RETAINED_SLOTS`` regardless of session length.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from ...simulator.address import GroupAddress
from .messages import ABSENT_KEY, KeyAnnouncement

__all__ = ["RouterKeyTable", "RETAINED_SLOTS"]

#: Governed slots of key material a router keeps: the current slot and the
#: five before it (keys for slots still ahead are always kept).
RETAINED_SLOTS = 6


class RouterKeyTable:
    """Maps ``(governed slot, group address)`` to the set of accepted keys."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[int, int], Set[int]] = {}
        self.entries_stored = 0
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------
    def store_announcement(self, values: Sequence[int]) -> None:
        """Record every tuple of a serialised announcement (``KeyAnnouncement.to_ints``).

        This is how an edge router absorbs a decoded announcement: straight
        from the integers, without rebuilding the message objects.  A
        truncated serialisation raises ``ValueError`` before anything is stored.
        """
        slot, count = KeyAnnouncement.frame(values)
        for at in range(2, 2 + 4 * count, 4):
            keys = [k for k in values[at + 1 : at + 4] if k != ABSENT_KEY]
            if keys:  # a group with no valid key is not stored (and not counted)
                self._table.setdefault((slot, values[at]), set()).update(keys)
                self.entries_stored += 1

    # ------------------------------------------------------------------
    def accepts(self, governed_slot: int, group: GroupAddress, submitted: int) -> bool:
        """True when ``submitted`` opens ``group`` during ``governed_slot``."""
        self.lookups += 1
        keys = self._table.get((governed_slot, int(group)))
        if keys is not None and submitted in keys:
            self.hits += 1
            return True
        return False

    # ------------------------------------------------------------------
    def prune_before(self, oldest_slot_to_keep: int) -> int:
        """Drop entries for slots before ``oldest_slot_to_keep``; return count dropped."""
        stale = [key for key in self._table if key[0] < oldest_slot_to_keep]
        for key in stale:
            del self._table[key]
        return len(stale)

    def prune_for_current_slot(self, current_slot: int) -> int:
        """Retain only the last :data:`RETAINED_SLOTS` slots up to ``current_slot``."""
        return self.prune_before(current_slot - RETAINED_SLOTS + 1)

