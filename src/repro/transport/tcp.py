"""TCP Reno over the simulator.

The paper's evaluation uses TCP Reno flows as the well-behaved unicast
competition (receivers T1 and T2 of Figure 1, and the cross traffic of
Figure 8(d)).  This module implements the canonical Reno sender — slow start,
congestion avoidance, fast retransmit after three duplicate ACKs, fast
recovery, and an exponential-backoff retransmission timer with
Jacobson/Karels RTT estimation — plus a cumulative-ACK sink.

Only the congestion behaviour matters for the reproduction (the figures show
throughput, not byte-exact traces), so segments are modelled at packet
granularity: sequence numbers count segments, every data segment is
``segment_bytes`` long, and ACKs are 40-byte packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..simulator.engine import Simulator
from ..simulator.monitors import ThroughputMonitor
from ..simulator.node import Host, PacketAgent
from ..simulator.packet import Packet

__all__ = ["TcpRenoSender", "TcpSink", "TcpConnection", "ACK_SIZE_BYTES"]

ACK_SIZE_BYTES = 40

#: Initial retransmission timeout before any RTT sample (RFC 6298 uses 1 s;
#: NS-2's default is also 1 s at the granularity we care about).
INITIAL_RTO_S = 1.0
MIN_RTO_S = 0.2
MAX_RTO_S = 60.0


class TcpRenoSender:
    """Reno congestion control with an unlimited (FTP-like) data supply.

    The retransmission timer restarts on every new ACK, so it is kept as a
    *deadline* rather than as a cancellable event (``Event.cancel`` is
    O(live events)): at most one engine wake is live at or before the
    deadline, and a wake that fires early re-arms itself at the deadline it
    finds.  Timeouts fire at exactly the instants a cancel-and-reschedule
    timer would produce (``tests/transport/test_tcp_rto.py`` keeps that timer
    as the oracle).
    """

    def __init__(
        self,
        host: Host,
        destination: Host,
        port: int,
        segment_bytes: int = 576,
        initial_ssthresh: float = 64.0,
        name: str = "",
        send_jitter_s: float = 0.001,
    ) -> None:
        self.host = host
        self.destination = destination
        self.port = port
        self.segment_bytes = segment_bytes
        self.name = name or f"tcp-{host.name}-{port}"
        self.sim: Simulator = host.sim
        # Small uniform per-segment send jitter (NS-2's "overhead_" knob):
        # without it, same-RTT Reno flows behind one drop-tail queue phase-lock
        # and share the bottleneck very unevenly.
        self.send_jitter_s = send_jitter_s
        import hashlib
        import random as _random

        # Seed from a stable digest, not the built-in string hash: hash() is
        # salted per process (PYTHONHASHSEED), which would make runs diverge
        # between the serial and process-pool experiment runner paths.
        digest = hashlib.sha256(f"tcp-jitter:{host.name}:{port}".encode()).digest()
        self._jitter_rng = _random.Random(int.from_bytes(digest[:8], "big"))
        self._last_departure = 0.0

        # Congestion control state (window units are segments).
        self.cwnd = 1.0
        self.ssthresh = initial_ssthresh
        self.next_seq = 0
        self.highest_acked = -1  # highest cumulatively acknowledged sequence
        self.dup_acks = 0
        self.in_fast_recovery = False
        self.recover_seq = -1

        # RTT estimation (Jacobson/Karels) and retransmission timer.
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = INITIAL_RTO_S
        self._rto_deadline: Optional[float] = None  # None: timer off
        self._rto_wake: Optional[float] = None  # time of the one live wake
        self._send_times: Dict[int, float] = {}
        self._retransmitted: set[int] = set()

        # Statistics.
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

        host.register_agent(("tcp-sender", port), _SenderAgent(self))
        self._started = False

    # ------------------------------------------------------------------
    # public control
    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Begin transmitting ``delay_s`` seconds from now."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(delay_s, self._send_allowed)

    @property
    def flight_size(self) -> int:
        """Segments sent but not yet cumulatively acknowledged."""
        return self.next_seq - (self.highest_acked + 1)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _send_allowed(self) -> None:
        """Send as many new segments as the congestion window permits."""
        while self.flight_size < int(self.cwnd):
            self._transmit(self.next_seq)
            self.next_seq += 1

    def _transmit(self, seq: int, is_retransmission: bool = False) -> None:
        packet = Packet(
            source=self.host.address,
            destination=self.destination.address,
            size_bytes=self.segment_bytes,
            protocol="tcp",
            headers={
                "port": self.port,
                "kind": "data",
                "seq": seq,
                "reply_port": ("tcp-sender", self.port),
            },
            created_at=self.sim.now,
        )
        self.segments_sent += 1
        # A segment re-sent through the normal window path after a go-back-N
        # rewind is still a retransmission (it sits in _retransmitted): count
        # it and keep Karn's rule by never recording a send time for it.
        if is_retransmission or seq in self._retransmitted:
            self.retransmissions += 1
            self._retransmitted.add(seq)
        else:
            self._send_times[seq] = self.sim.now
        if self.send_jitter_s > 0:
            # Jitter departures without ever reordering segments of this flow.
            departure = max(
                self.sim.now + self._jitter_rng.uniform(0.0, self.send_jitter_s),
                self._last_departure + 1e-6,
            )
            self._last_departure = departure
            self.sim.call_after(departure - self.sim.now, self.host.send, packet)
        else:
            self.host.send(packet)
        if self._rto_deadline is None:
            self._arm_rto()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def handle_ack(self, ack: int) -> None:
        """Process a cumulative ACK acknowledging everything below ``ack``."""
        acked_seq = ack - 1
        if acked_seq > self.highest_acked:
            self._handle_new_ack(acked_seq)
        elif acked_seq == self.highest_acked:
            self._handle_duplicate_ack()
        self._send_allowed()

    def _handle_new_ack(self, acked_seq: int) -> None:
        self._sample_rtt(acked_seq)
        newly_acked = acked_seq - self.highest_acked
        self.highest_acked = acked_seq
        self.dup_acks = 0
        for seq in list(self._send_times):
            if seq <= acked_seq:
                self._send_times.pop(seq, None)

        if self.in_fast_recovery:
            if acked_seq >= self.recover_seq:
                # Full ACK: leave fast recovery and deflate the window.
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ACK (NewReno-style hole): retransmit the next hole
                # but stay in recovery; classic Reno would often stall here,
                # the partial-ack retransmit keeps long runs stable.
                self._transmit(acked_seq + 1, is_retransmission=True)
                self.cwnd = max(self.ssthresh, self.cwnd - newly_acked + 1)
        elif self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance

        self._arm_rto(restart=True)

    def _handle_duplicate_ack(self) -> None:
        self.dup_acks += 1
        if self.in_fast_recovery:
            self.cwnd += 1.0  # window inflation per extra duplicate ACK
            return
        if self.dup_acks == 3:
            self.fast_retransmits += 1
            self.ssthresh = max(self.flight_size / 2.0, 2.0)
            self.recover_seq = self.next_seq - 1
            self.in_fast_recovery = True
            self.cwnd = self.ssthresh + 3.0
            self._transmit(self.highest_acked + 1, is_retransmission=True)
            self._arm_rto(restart=True)

    # ------------------------------------------------------------------
    # RTT estimation and retransmission timer
    # ------------------------------------------------------------------
    def _sample_rtt(self, acked_seq: int) -> None:
        # Karn's rule: never sample a retransmitted segment.
        sent_at = self._send_times.get(acked_seq)
        if sent_at is None or acked_seq in self._retransmitted:
            return
        sample = self.sim.now - sent_at
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(MAX_RTO_S, max(MIN_RTO_S, self.srtt + 4.0 * self.rttvar))

    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_deadline is not None and not restart:
            return
        if self.flight_size <= 0 and self.next_seq > 0:
            self._rto_deadline = None  # a wake still in the heap finds it off
            return
        self._rto_deadline = deadline = self.sim.now + self.rto
        if self._rto_wake is None or deadline < self._rto_wake:
            # No wake, or a shrunken rto put the deadline before it: a new
            # wake takes over and the later one returns as superseded.
            self._wake_at(deadline)

    def _wake_at(self, time: float) -> None:
        self._rto_wake = time
        self.sim.call_at(time, self._on_rto_wake, time)

    def _on_rto_wake(self, wake: float) -> None:
        if wake != self._rto_wake:
            return  # superseded by an earlier wake
        self._rto_wake = None
        deadline = self._rto_deadline
        if deadline is None:
            return  # the flight emptied since this wake was armed
        if deadline > wake:
            self._wake_at(deadline)  # ACKs pushed the deadline out
        else:
            self._on_timeout()

    def _on_timeout(self) -> None:
        self._rto_deadline = None
        if self.flight_size <= 0:
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_fast_recovery = False
        self.rto = min(MAX_RTO_S, self.rto * 2.0)
        # Go-back-N rewind (NS-2 Reno's t_seqno_ = highest_ack_ + 1): every
        # unacknowledged segment is presumed lost and will be resent as the
        # window reopens.  Without the rewind, flight_size stays inflated, the
        # window never admits anything, and a flow that lost a burst trickles
        # out one retransmission per (exponentially backed-off) RTO — starving
        # it for the rest of the experiment.
        for seq in range(self.highest_acked + 1, self.next_seq):
            self._send_times.pop(seq, None)
            self._retransmitted.add(seq)  # Karn: no RTT samples from resends
        self.next_seq = self.highest_acked + 1
        self._transmit(self.next_seq, is_retransmission=True)
        self.next_seq += 1
        self._arm_rto(restart=True)


class _SenderAgent(PacketAgent):
    """Delivers ACK packets arriving at the sender host to the Reno state machine."""

    def __init__(self, sender: TcpRenoSender) -> None:
        self.sender = sender

    def handle_packet(self, packet: Packet) -> None:
        if packet.headers.get("kind") == "ack":
            self.sender.handle_ack(packet.headers["ack"])


class TcpSink(PacketAgent):
    """Cumulative-ACK receiver; records goodput in a throughput monitor."""

    def __init__(
        self,
        host: Host,
        port: int,
        bin_width_s: float = 1.0,
        name: str = "",
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"tcp-sink-{host.name}-{port}"
        self.monitor = ThroughputMonitor(host.sim, bin_width_s=bin_width_s, name=self.name)
        self._received: set[int] = set()
        self._next_expected = 0
        self.acks_sent = 0
        host.register_agent(port, self)

    def handle_packet(self, packet: Packet) -> None:
        """Record a data segment and answer with a cumulative ACK."""
        if packet.headers.get("kind") != "data":
            return
        seq = packet.headers["seq"]
        if seq not in self._received:
            self._received.add(seq)
            self.monitor.record(packet.size_bytes)
        while self._next_expected in self._received:
            self._received.discard(self._next_expected)
            self._next_expected += 1
        self._send_ack(packet)

    def _send_ack(self, data_packet: Packet) -> None:
        ack = Packet(
            source=self.host.address,
            destination=data_packet.source,
            size_bytes=ACK_SIZE_BYTES,
            protocol="tcp",
            headers={
                "port": data_packet.headers.get("reply_port"),
                "kind": "ack",
                "ack": self._next_expected,
            },
            created_at=self.host.sim.now,
        )
        self.acks_sent += 1
        self.host.send(ack)


@dataclass
class TcpConnection:
    """Convenience bundle: a Reno sender and its sink, wired together."""

    sender: TcpRenoSender
    sink: TcpSink

    @classmethod
    def create(
        cls,
        source_host: Host,
        sink_host: Host,
        port: int,
        segment_bytes: int = 576,
        bin_width_s: float = 1.0,
        name: str = "",
    ) -> "TcpConnection":
        """Create a sender on ``source_host`` and a sink on ``sink_host``."""
        sink = TcpSink(sink_host, port, bin_width_s=bin_width_s, name=f"{name}-sink" if name else "")
        sender = TcpRenoSender(
            source_host, sink_host, port, segment_bytes=segment_bytes, name=name
        )
        return cls(sender=sender, sink=sink)

    def start(self, delay_s: float = 0.0) -> None:
        """Start the sender ``delay_s`` seconds from now."""
        self.sender.start(delay_s)

    @property
    def monitor(self) -> ThroughputMonitor:
        """The sink's goodput monitor."""
        return self.sink.monitor
