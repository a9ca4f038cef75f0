"""Edge-router key table.

SIGMA edge routers store, for every governed time slot, the set of keys that
open each multicast group (§3.2.1).  The table is deliberately generic — it
knows nothing about which congestion control protocol produced the keys, only
that a submitted key either matches one of the stored keys for (slot, group)
or it does not (Requirement 3).

Old slots are pruned as the slot clock advances so the table stays bounded by
``groups × retained_slots`` regardless of session length.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

from ...simulator.address import GroupAddress
from ..delta.base import GroupKeys
from .messages import ABSENT_KEY, KeyAnnouncement

__all__ = ["RouterKeyTable"]


class RouterKeyTable:
    """Maps ``(governed slot, group address)`` to the set of accepted keys."""

    def __init__(self, retained_slots: int = 6) -> None:
        if retained_slots < 2:
            raise ValueError("retained_slots must be at least 2")
        self.retained_slots = retained_slots
        self._table: Dict[Tuple[int, int], Set[int]] = {}
        self.entries_stored = 0
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------
    def store(self, governed_slot: int, group: GroupAddress, keys: GroupKeys) -> None:
        """Record the keys that open ``group`` during ``governed_slot``."""
        self._add(governed_slot, int(group), keys.valid_keys())

    def store_announcement(self, values: Sequence[int]) -> None:
        """Record every tuple of a serialised announcement (``KeyAnnouncement.to_ints``).

        This is how an edge router absorbs a decoded announcement: straight
        from the integers, without rebuilding the message objects.  A
        truncated serialisation raises ``ValueError`` before anything is stored.
        """
        slot, count = KeyAnnouncement.frame(values)
        for at in range(2, 2 + 4 * count, 4):
            self._add(slot, values[at], [k for k in values[at + 1 : at + 4] if k != ABSENT_KEY])

    def _add(self, governed_slot: int, address: int, keys: Sequence[int]) -> None:
        if not keys:  # a group with no valid key is not stored (and not counted)
            return
        self._table.setdefault((governed_slot, address), set()).update(keys)
        self.entries_stored += 1

    def store_key_values(
        self, governed_slot: int, group: GroupAddress, keys: Iterable[int]
    ) -> None:
        """Record raw key values (used by tests and replay tooling)."""
        self._add(governed_slot, int(group), list(keys))

    # ------------------------------------------------------------------
    def accepts(self, governed_slot: int, group: GroupAddress, submitted: int) -> bool:
        """True when ``submitted`` opens ``group`` during ``governed_slot``."""
        self.lookups += 1
        keys = self._table.get((governed_slot, int(group)))
        if keys is not None and submitted in keys:
            self.hits += 1
            return True
        return False

    def has_keys_for(self, governed_slot: int, group: GroupAddress) -> bool:
        """True when the router holds any key for (slot, group)."""
        return bool(self._table.get((governed_slot, int(group))))

    def keys_for(self, governed_slot: int, group: GroupAddress) -> Set[int]:
        """The stored key set (copy); empty when unknown."""
        return set(self._table.get((governed_slot, int(group)), set()))

    # ------------------------------------------------------------------
    def prune_before(self, oldest_slot_to_keep: int) -> int:
        """Drop entries for slots before ``oldest_slot_to_keep``; return count dropped."""
        stale = [key for key in self._table if key[0] < oldest_slot_to_keep]
        for key in stale:
            del self._table[key]
        return len(stale)

    def prune_for_current_slot(self, current_slot: int) -> int:
        """Retain only the last ``retained_slots`` slots relative to ``current_slot``."""
        return self.prune_before(current_slot - self.retained_slots + 1)

    def __len__(self) -> int:
        return len(self._table)
