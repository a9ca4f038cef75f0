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

Both times are known the moment serialization starts, so that is when the
link schedules the packet's delivery — its only event on an idle link.  The
link remembers when the wire falls free (``_busy_until``) instead of waking
up to find out; a ``_drain`` event exists only while packets wait in the
queue.

The default queue capacity is two bandwidth-delay products, the setting used
throughout the paper's evaluation (§5.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

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
    """Per-link transmission counters."""

    def __init__(self) -> None:
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        self.delivered_packets = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"LinkStats(tx_pkts={self.transmitted_packets}, "
            f"tx_bytes={self.transmitted_bytes})"
        )


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
        self.name = name or f"{src.name}->{dst.name}"
        self.stats = LinkStats()
        #: Time at which the packet on the wire (if any) finishes serializing.
        self._busy_until = 0.0
        #: True while a ``_drain`` event is armed, i.e. the queue is non-empty.
        self._draining = False
        #: Optional hook invoked with every packet dropped at this link's queue.
        self.on_drop: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.name}, {self.bandwidth_bps / 1e6:.2f} Mbps, {self.delay_s * 1e3:.1f} ms)"

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized or others wait behind it."""
        return self._draining or self.sim.now < self._busy_until

    def transmission_time(self, packet: Packet) -> float:
        """Serialization delay of ``packet`` on this link."""
        return packet.size_bits / self.bandwidth_bps

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Accept a packet for transmission.

        Returns True when the packet was queued (or started transmitting)
        and False when the drop-tail queue rejected it.

        A packet that finds the link idle costs one event, its delivery; a
        packet that finds it busy waits in the queue, and a ``_drain`` event
        exists only while something waits.
        """
        if self._draining:
            accepted = self.queue.enqueue(packet)
        else:
            sim = self.sim
            now = sim.now
            if now < self._busy_until:
                accepted = self.queue.enqueue(packet)
                if accepted:
                    self._draining = True
                    sim.call_at(self._busy_until, self._drain)
            else:
                accepted = self.queue.transit(packet)
                if accepted:
                    self._transmit(packet, now)
        if accepted:
            return True
        if self.on_drop is not None:
            self.on_drop(packet)
        pool = packet._pool
        if pool is not None:
            # A dropped pool replica has no remaining consumer: recycle.
            pool.release(packet)
        return False

    # ------------------------------------------------------------------
    def _transmit(self, packet: Packet, now: float) -> None:
        """Put ``packet`` on the wire at ``now`` and schedule its one event."""
        size_bytes = packet.size_bytes
        stats = self.stats
        stats.transmitted_packets += 1
        stats.transmitted_bytes += size_bytes
        # Serialization ends after size/bandwidth, when the link is free for
        # the next packet; this one arrives a propagation delay later.
        done = now + size_bytes * 8 / self.bandwidth_bps
        self._busy_until = done
        self.sim.call_at(done + self.delay_s, self._deliver, packet)

    def _drain(self) -> None:
        """Serialization just ended with packets waiting: start the next."""
        queue = self.queue
        packet = queue.dequeue()
        if packet is not None:
            # Armed at ``_busy_until`` and nothing else transmits meanwhile,
            # so that is the current time.
            self._transmit(packet, self._busy_until)
            if not queue.is_empty:
                self.sim.call_at(self._busy_until, self._drain)
                return
        self._draining = False

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        packet.hop_count += 1
        self.dst.receive(packet, self)
