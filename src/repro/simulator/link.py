"""Point-to-point links.

A :class:`Link` is a unidirectional pipe between two nodes with a bandwidth,
a propagation delay and a drop-tail output queue.  Duplex connectivity is
built from two links (one per direction), exactly as NS-2's duplex-link
creates two simplex links.

Packet timing follows the textbook store-and-forward model:

* a packet that arrives at an idle link starts transmitting immediately;
* transmission (serialization) takes ``size_bits / bandwidth`` seconds;
* the packet then propagates for ``delay`` seconds and is handed to the
  destination node;
* packets arriving while the link transmits are held in the output queue and
  dropped when the queue is full.

The queue is FIFO, so an admitted packet starts serializing when the wire
falls free — at once on an idle link, at the end of the backlog otherwise —
and both that instant and its arrival at the far end are known the moment
the queue admits it.  That is when the link schedules the packet's delivery,
its one and only event.  The link remembers when the wire falls free
(``_busy_until``) instead of waking up to find out, and the queue retires
waiting packets by their start times (:mod:`repro.simulator.queues`).

The default queue capacity is two bandwidth-delay products, the setting used
throughout the paper's evaluation (§5.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .node import Node

__all__ = ["Link", "LinkStats", "default_buffer_bytes"]


def default_buffer_bytes(bandwidth_bps: float, delay_s: float, multiple: float = 2.0) -> int:
    """Queue capacity equal to ``multiple`` bandwidth-delay products.

    The paper sets the buffer space of every link to two bandwidth-delay
    products; a floor of one maximum-size packet keeps very small links
    usable.
    """
    bdp_bytes = bandwidth_bps * delay_s / 8.0
    return max(int(multiple * bdp_bytes), 1600)


class LinkStats:
    """Per-link transmission counters.

    A packet counts as transmitted once its serialization has started —
    exactly what the link's queue counts as dequeued, read from there as of
    the current instant — and as delivered once it reached the far end.
    """

    def __init__(self, queue: DropTailQueue) -> None:
        self._queue = queue
        self.delivered_packets = 0

    @property
    def transmitted_packets(self) -> int:
        """Packets whose serialization has started."""
        return self._queue.stats.dequeued_packets

    @property
    def transmitted_bytes(self) -> int:
        """Bytes of the packets whose serialization has started."""
        return self._queue.stats.dequeued_bytes


class Link:
    """Unidirectional link with serialization, propagation and a FIFO queue."""

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive (got {bandwidth_bps})")
        if delay_s < 0:
            raise ValueError(f"propagation delay must be non-negative (got {delay_s})")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        # Note: an empty DropTailQueue is falsy (it defines __len__), so the
        # presence check must be an identity test, not a truthiness test.
        self.queue = (
            queue if queue is not None else DropTailQueue(default_buffer_bytes(bandwidth_bps, delay_s))
        )
        self.queue.clock = sim
        self.name = name or f"{src.name}->{dst.name}"
        self.stats = LinkStats(self.queue)
        #: Time at which the last admitted packet finishes serializing: the
        #: end of the backlog.
        self._busy_until = 0.0

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.name}, {self.bandwidth_bps / 1e6:.2f} Mbps, {self.delay_s * 1e3:.1f} ms)"

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized or others wait behind it."""
        return self.sim.now < self._busy_until

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Accept a packet for transmission.

        Returns True when the packet was queued (or started transmitting)
        and False when the drop-tail queue rejected it.

        An admitted packet costs one event, its delivery, whether it finds
        the link idle or waits behind a backlog.
        """
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if self.queue.admit(packet, now, start):
            if start < now:
                start = now
            # Serialization ends after size/bandwidth, when the link is free
            # for the next packet; this one arrives a propagation delay later.
            done = start + packet.size_bytes * 8 / self.bandwidth_bps
            self._busy_until = done
            sim.schedule_at(done + self.delay_s, self._deliver, packet)
            return True
        return False

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        self.dst.receive(packet, self)
