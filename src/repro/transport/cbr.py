"""Constant-bit-rate (CBR) and on-off CBR sources.

The paper's evaluation uses an on-off CBR session in two roles:

* background cross traffic transmitting at 10 % of the bottleneck capacity
  with 5-second on and off periods (Figure 8(d));
* a square-wave disturbance at 800 Kbps between t = 45 s and t = 75 s used to
  probe the responsiveness of FLID-DL versus FLID-DS (Figure 8(e)).

``CbrSource`` emits fixed-size packets at a constant rate; ``OnOffCbrSource``
gates it with alternating on/off periods; ``CbrSink`` simply counts what
arrives (useful for asserting that the source behaves as configured).
"""

from __future__ import annotations

from typing import Optional

from ..simulator.engine import Simulator
from ..simulator.monitors import ThroughputMonitor
from ..simulator.node import Host, PacketAgent
from ..simulator.packet import Packet

__all__ = ["CbrSource", "OnOffCbrSource", "CbrSink"]


class CbrSource:
    """Sends ``packet_bytes``-sized packets at ``rate_bps`` toward a host/port."""

    def __init__(
        self,
        host: Host,
        destination: Host,
        port: int,
        rate_bps: float,
        packet_bytes: int = 576,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"CBR rate must be positive (got {rate_bps})")
        self.host = host
        self.destination = destination
        self.port = port
        self.rate_bps = rate_bps
        self.packet_bytes = packet_bytes
        self.name = name or f"cbr-{host.name}-{port}"
        self.sim: Simulator = host.sim
        self.packets_sent = 0
        self._running = False
        #: Bumped by every :meth:`stop`: a send scheduled before it carries
        #: an older number and does nothing.
        self._generation = 0

    @property
    def interval_s(self) -> float:
        """Inter-packet interval at the configured rate."""
        return self.packet_bytes * 8.0 / self.rate_bps

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Send the first packet now and one per :attr:`interval_s` after it."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(0.0, self._send_next, self._generation)

    def stop(self) -> None:
        """Send nothing more until the next :meth:`start`."""
        self._running = False
        self._generation += 1

    # ------------------------------------------------------------------
    def _send_next(self, generation: int) -> None:
        if generation != self._generation:
            return  # scheduled before a stop
        packet = Packet(
            source=self.host.address,
            destination=self.destination.address,
            size_bytes=self.packet_bytes,
            protocol="cbr",
            headers={"port": self.port},
        )
        self.packets_sent += 1
        self.host.send(packet)
        self.sim.schedule(self.interval_s, self._send_next, generation)


class OnOffCbrSource:
    """A CBR source gated by alternating on and off periods.

    The source enters its first on-period at :meth:`start`; each on-period
    lasts ``on_s`` and each off-period ``off_s`` seconds.  An optional
    ``active_window`` instead keeps it on over one absolute time interval
    (used for the Figure 8(e) burst).
    """

    def __init__(
        self,
        host: Host,
        destination: Host,
        port: int,
        rate_bps: float,
        on_s: float,
        off_s: float,
        packet_bytes: int = 576,
        active_window: Optional[tuple[float, float]] = None,
        name: str = "",
    ) -> None:
        if on_s <= 0 or off_s < 0:
            raise ValueError("on_s must be positive and off_s non-negative")
        self.source = CbrSource(host, destination, port, rate_bps, packet_bytes, name)
        self.on_s = on_s
        self.off_s = off_s
        self.active_window = active_window
        self.sim = host.sim
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the on/off cycle now (or the active window when it opens)."""
        if self._running:
            return
        self._running = True
        if self.active_window is not None:
            begin, end = self.active_window
            self.sim.schedule(max(begin - self.sim.now, 0.0), self._enter_on)
            self.sim.schedule(max(end - self.sim.now, 0.0), self._shutdown)
        else:
            self.sim.schedule(0.0, self._enter_on)

    # ------------------------------------------------------------------
    def _enter_on(self) -> None:
        if not self._running:
            return
        self.source.start()
        if self.active_window is None:
            self.sim.schedule(self.on_s, self._enter_off)
        # Inside an active window the source simply stays on until shutdown.

    def _enter_off(self) -> None:
        if not self._running:
            return
        self.source.stop()
        self.sim.schedule(self.off_s, self._enter_on)

    def _shutdown(self) -> None:
        self._running = False
        self.source.stop()


class CbrSink(PacketAgent):
    """Counts CBR packets delivered to a host/port."""

    def __init__(self, host: Host, port: int, name: str = "") -> None:
        self.host = host
        self.port = port
        self.name = name or f"cbr-sink-{host.name}-{port}"
        self.monitor = ThroughputMonitor(host.sim, name=self.name)
        self.packets_received = 0
        host.register_agent(port, self)

    def handle_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.monitor.record(packet.size_bytes)
