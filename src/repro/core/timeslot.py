"""Time slots — the atomic duration of group access control.

Figure 2 of the paper defines the key pipeline: keys distributed (in-band to
receivers, via special packets to edge routers) during slot ``s`` control
access during slot ``s + 2``.  Slot ``s + 1`` gives receivers time to
reconstruct the keys and submit them to the edge router before packets of
slot ``s + 2`` arrive.

``SlotClock`` provides that notion of time to every component: the FLID-DS
sender (key precomputation and announcement), the FLID-DS receivers (key
reconstruction at slot boundaries) and the SIGMA edge-router agent (access
enforcement at slot boundaries).  All parties derive the slot index from the
shared simulated clock, so they agree on slot numbering without explicit
synchronisation — the same assumption the paper makes by having the sender
stamp slot numbers on packets.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..simulator.engine import PeriodicTimer, Simulator

__all__ = ["SlotClock", "KEY_PIPELINE_DEPTH"]

#: Keys distributed in slot ``s`` govern slot ``s + KEY_PIPELINE_DEPTH``.
KEY_PIPELINE_DEPTH = 2


class SlotClock:
    """Divides simulated time into fixed-length slots and fires callbacks.

    Slot 0 starts at simulated time 0, so the slot containing time ``t`` has
    index ``floor(t / duration)``.
    Callbacks registered with :meth:`on_slot_start` run at the beginning of
    every slot, in registration order, after the clock has advanced its own
    notion of the current slot.
    """

    def __init__(self, sim: Simulator, duration_s: float) -> None:
        if duration_s <= 0:
            raise ValueError(f"slot duration must be positive (got {duration_s})")
        self.sim = sim
        self.duration_s = duration_s
        self._callbacks: List[Callable[[int], None]] = []
        self._started = False

    # ------------------------------------------------------------------
    # slot arithmetic
    # ------------------------------------------------------------------
    def slot_of(self, time_s: Optional[float] = None) -> int:
        """Slot index containing ``time_s`` (defaults to the current time)."""
        t = self.sim.now if time_s is None else time_s
        return int(t / self.duration_s)

    @property
    def current_slot(self) -> int:
        return self.slot_of()

    def start_of(self, slot: int) -> float:
        """Absolute simulated time at which ``slot`` begins."""
        return slot * self.duration_s

    def end_of(self, slot: int) -> float:
        """Absolute simulated time at which ``slot`` ends."""
        return self.start_of(slot + 1)

    def governed_slot(self, distribution_slot: int) -> int:
        """Slot whose access is controlled by keys distributed in ``distribution_slot``."""
        return distribution_slot + KEY_PIPELINE_DEPTH

    def distribution_slot(self, governed_slot: int) -> int:
        """Slot during which the keys for ``governed_slot`` are distributed."""
        return governed_slot - KEY_PIPELINE_DEPTH

    # ------------------------------------------------------------------
    # callbacks
    # ------------------------------------------------------------------
    def on_slot_start(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(slot_index)`` to run at every slot boundary."""
        self._callbacks.append(callback)

    def start(self) -> None:
        """Begin firing slot-boundary callbacks (idempotent).

        The first firing happens at the start of the next slot boundary after
        the current time; callbacks for the slot already in progress are not
        retroactively invoked.
        """
        if self._started:
            return
        self._started = True
        now = self.sim.now
        next_slot = self.slot_of(now) + 1
        delay = max(self.start_of(next_slot) - now, 0.0)
        timer = PeriodicTimer(
            self.sim, self.duration_s, self._fire, first_delay=delay if delay > 0 else self.duration_s
        )
        # When we are exactly on a boundary, fire immediately for that slot.
        if delay == 0.0:
            self.sim.schedule(0.0, self._fire)
        timer.start()

    def _fire(self) -> None:
        slot = self.current_slot
        for callback in list(self._callbacks):
            callback(slot)
