"""Output queues for simulated links.

The paper's evaluation uses plain drop-tail FIFO queues sized at two
bandwidth-delay products of the attached link (§5.1), and the drop-tail queue
is the only discipline this reproduction needs.

A link schedules each packet's delivery when its queue admits it
(:mod:`repro.simulator.link`), so a queue holds no packets: it keeps the start
time and size of every admitted packet not yet on the wire and retires them
lazily by time.  Every reading is taken as of the clock's current instant,
and every admitted packet is eventually dequeued, every rejected one dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from .packet import Packet

__all__ = [
    "QueueStats",
    "DropTailQueue",
]


@dataclass
class QueueStats:
    """Counters exposed by every queue implementation.

    ``enqueued_*`` count admitted packets, ``dequeued_*`` those whose
    serialization has started and ``dropped_*`` the rejected ones.
    """

    enqueued_packets: int = 0
    dequeued_packets: int = 0
    dropped_packets: int = 0
    enqueued_bytes: int = 0
    dequeued_bytes: int = 0
    dropped_bytes: int = 0

    def conservation_holds(self, currently_queued: int) -> bool:
        """Check the enqueue = dequeue + drop + queued invariant."""
        return self.enqueued_packets == (
            self.dequeued_packets + currently_queued
        ) and self.dropped_packets >= 0


class DropTailQueue:
    """Bounded FIFO queue that drops arriving packets when full.

    The capacity is expressed in bytes (the natural unit for a queue sized in
    bandwidth-delay products).  A packet is accepted only if it fits entirely
    within the remaining capacity, which matches NS-2's byte-mode DropTail
    behaviour closely enough for the paper's experiments.  A packet whose
    serialization starts at the arrival instant has left the queue: at a
    hand-over instant the packet going onto the wire no longer counts.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive (got {capacity_bytes})")
        self.capacity_bytes = capacity_bytes
        #: ``(start time, size)`` of every admitted packet not yet on the
        #: wire, in FIFO (hence start-time) order.
        self._waiting: Deque[Tuple[float, int]] = deque()
        self._queued_bytes = 0
        self._stats = QueueStats()
        #: What readings retire waiting packets by (anything with ``now``);
        #: the link that owns the queue sets it to its simulator.
        self.clock = None

    # ------------------------------------------------------------------
    def _retire(self, now: float) -> None:
        """Dequeue every waiting packet whose serialization started by ``now``."""
        waiting = self._waiting
        stats = self._stats
        while waiting and waiting[0][0] <= now:
            size_bytes = waiting.popleft()[1]
            self._queued_bytes -= size_bytes
            stats.dequeued_packets += 1
            stats.dequeued_bytes += size_bytes

    def _settle(self) -> None:
        """Bring the readings up to the clock's current instant."""
        if self.clock is not None:
            self._retire(self.clock.now)

    @property
    def stats(self) -> QueueStats:
        """The counters, as of the clock's current instant."""
        self._settle()
        return self._stats

    def __len__(self) -> int:
        self._settle()
        return len(self._waiting)

    @property
    def queued_bytes(self) -> int:
        """Bytes currently held in the queue."""
        self._settle()
        return self._queued_bytes

    # ------------------------------------------------------------------
    def admit(self, packet: Packet, now: float, start: float) -> bool:
        """Admit ``packet``, arriving at ``now``, for serialization at ``start``.

        ``start`` is when the wire falls free: ``now`` or earlier on an idle
        link, the end of the backlog otherwise.  Returns False (and counts a
        drop) when the packet does not fit beside the packets still waiting.
        """
        waiting = self._waiting
        if waiting and waiting[0][0] <= now:
            self._retire(now)
        size_bytes = packet.size_bytes
        stats = self._stats
        if self._queued_bytes + size_bytes > self.capacity_bytes:
            stats.dropped_packets += 1
            stats.dropped_bytes += size_bytes
            return False
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size_bytes
        if start > now:
            waiting.append((start, size_bytes))
            self._queued_bytes += size_bytes
        else:
            stats.dequeued_packets += 1
            stats.dequeued_bytes += size_bytes
        return True
