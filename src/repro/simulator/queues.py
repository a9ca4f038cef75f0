"""Output queues for simulated links.

The paper's evaluation uses plain drop-tail FIFO queues sized at two
bandwidth-delay products of the attached link (§5.1).  The drop-tail queue is
therefore the workhorse of this reproduction; a RED-like marking queue is
also provided because §3.1.2 describes an ECN variant of DELTA in which edge
routers scramble the component field of marked packets.

Queues count bytes, packets and drops so monitors and tests can assert
conservation properties (every enqueued packet is eventually dequeued or
counted as dropped).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .packet import Packet

__all__ = [
    "QueueStats",
    "DropTailQueue",
    "ECNMarkingQueue",
]


@dataclass
class QueueStats:
    """Counters exposed by every queue implementation."""

    enqueued_packets: int = 0
    dequeued_packets: int = 0
    dropped_packets: int = 0
    enqueued_bytes: int = 0
    dequeued_bytes: int = 0
    dropped_bytes: int = 0
    marked_packets: int = 0

    @property
    def packets_in_flight(self) -> int:
        """Packets accepted but not yet dequeued."""
        return self.enqueued_packets - self.dequeued_packets

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
    behaviour closely enough for the paper's experiments.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive (got {capacity_bytes})")
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queued_bytes(self) -> int:
        """Bytes currently held in the queue."""
        return self._queued_bytes

    @property
    def is_empty(self) -> bool:
        """True when no packet is queued."""
        return not self._queue

    def occupancy(self) -> float:
        """Fraction of the byte capacity currently in use (0.0 - 1.0)."""
        return self._queued_bytes / self.capacity_bytes

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Try to accept ``packet``; returns False (and counts a drop) when full."""
        if self._queued_bytes + packet.size_bytes > self.capacity_bytes:
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size_bytes
            return False
        self._queue.append(packet)
        self._queued_bytes += packet.size_bytes
        self.stats.enqueued_packets += 1
        self.stats.enqueued_bytes += packet.size_bytes
        return True

    def transit(self, packet: Packet) -> bool:
        """``enqueue`` then ``dequeue`` of an *empty* queue, in one step.

        What a link calls for a packet it can serialize at once: the same
        capacity check and the same four counters, no deque traffic.  An
        empty queue is below every legal marking threshold, so
        :class:`ECNMarkingQueue` inherits this unchanged.
        """
        size_bytes = packet.size_bytes
        stats = self.stats
        if size_bytes > self.capacity_bytes:
            stats.dropped_packets += 1
            stats.dropped_bytes += size_bytes
            return False
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size_bytes
        stats.dequeued_packets += 1
        stats.dequeued_bytes += size_bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._queued_bytes -= packet.size_bytes
        self.stats.dequeued_packets += 1
        self.stats.dequeued_bytes += packet.size_bytes
        return packet

    def peek(self) -> Optional[Packet]:
        """Return the head-of-line packet without removing it."""
        return self._queue[0] if self._queue else None

    def clear(self) -> None:
        """Discard all queued packets (counted as drops)."""
        while self._queue:
            packet = self._queue.popleft()
            self._queued_bytes -= packet.size_bytes
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size_bytes


class ECNMarkingQueue(DropTailQueue):
    """Drop-tail queue that additionally marks packets above a threshold.

    When the instantaneous occupancy exceeds ``mark_threshold`` (a fraction
    of capacity), arriving ECN-capable packets are marked instead of relying
    solely on loss.  The ECN DELTA variant (§3.1.2) uses the mark as the
    trigger for edge routers to scramble the packet's component field so
    marked packets cannot contribute to key reconstruction.
    """

    def __init__(self, capacity_bytes: int, mark_threshold: float = 0.5) -> None:
        super().__init__(capacity_bytes)
        if not (0.0 < mark_threshold <= 1.0):
            raise ValueError(
                f"mark_threshold must be in (0, 1] (got {mark_threshold})"
            )
        self.mark_threshold = mark_threshold

    def enqueue(self, packet: Packet) -> bool:
        """Mark the packet when occupancy exceeds the threshold, then enqueue."""
        if self.occupancy() >= self.mark_threshold:
            packet.ecn = True
            self.stats.marked_packets += 1
        return super().enqueue(packet)
