"""The retransmission deadline against the timer it replaced.

``TcpRenoSender`` keeps an RTO *deadline* and at most one live engine wake
that re-arms itself when it fires early (``repro.transport.tcp``), instead of
one engine event per ACK.  The oracle here is the timer it replaced —
schedule a new event on every ACK and let the superseded one fire as a
no-op — kept as a test-only subclass.  Both senders must time out at the
same instants and walk the same congestion window, ACK by ACK.
"""

import pytest

from repro.simulator.topology import NetworkGraph, dumbbell_topology
from repro.transport.tcp import TcpRenoSender, TcpSink


class RestartPerAck:
    """The timer before the deadline: one new event per restart, per ACK.

    Each event carries the generation it was armed in; a restart moves the
    generation on, so every event but the newest fires as a no-op.
    """

    _rto_armed = False
    _rto_generation = 0
    superseded = 0

    def _arm_rto(self, restart=False):
        if self._rto_armed:
            if not restart:
                return
            self._rto_generation += 1
            self._rto_armed = False
        if self.flight_size <= 0 and self.next_seq > 0:
            self._rto_deadline = None
            return
        # _transmit and _on_timeout read and clear _rto_deadline as "timer on".
        self._rto_deadline = self.sim.now + self.rto
        self._rto_armed = True
        self.sim.schedule(self.rto, self._expire, self._rto_generation)

    def _expire(self, generation):
        if generation != self._rto_generation:
            self.superseded += 1
            return
        self._rto_armed = False
        self._on_timeout()


class Recorded:
    """Logs every timeout instant and the window after every ACK."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timeout_times = []
        self.cwnd_trace = []

    def handle_ack(self, ack):
        super().handle_ack(ack)
        self.cwnd_trace.append((self.sim.now, ack, self.cwnd))

    def _on_timeout(self):
        if self.flight_size > 0:
            self.timeout_times.append(self.sim.now)
        super()._on_timeout()


class DeadlineSender(Recorded, TcpRenoSender):
    pass


class RestartPerAckSender(Recorded, RestartPerAck, TcpRenoSender):
    pass


def lossy_dumbbell(sender_cls, seed, flows=4, duration_s=30.0):
    """``flows`` Reno flows through a 300 Kbps, one-BDP bottleneck."""
    net = NetworkGraph(
        dumbbell_topology(bottleneck_bandwidth_bps=300_000.0, buffer_bdp_multiple=1.0)
    )
    senders = []
    for flow in range(flows):
        source, sink = net.add_sender(), net.add_receiver()
        # The port seeds the sender's jitter stream, so it is the seed here.
        port = 9000 + 10 * seed + flow
        TcpSink(sink, port)
        senders.append(sender_cls(source, sink, port))
    net.build_routes()
    for flow, sender in enumerate(senders):
        sender.start(0.37 * flow + 0.01 * seed)
    net.sim.run(until=duration_s)
    return net, senders


def black_hole_sender(sender_cls):
    """A sender whose segments reach a host with no sink: no ACK ever returns."""
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=1_000_000.0))
    source, sink = net.add_sender(), net.add_receiver()
    net.build_routes()
    return net.sim, sender_cls(source, sink, 9000)


@pytest.mark.parametrize("seed", range(6))
def test_deadline_matches_restart_per_ack_on_a_lossy_dumbbell(seed):
    oracle_net, oracle = lossy_dumbbell(RestartPerAckSender, seed)
    net, senders = lossy_dumbbell(DeadlineSender, seed)

    assert sum(s.superseded for s in oracle) > 1000
    assert net.sim.now == oracle_net.sim.now
    # The scenario is lossy enough to exercise every recovery path.
    assert sum(s.timeouts for s in senders) >= 3
    assert sum(s.fast_retransmits for s in senders) >= 3
    for sender, expected in zip(senders, oracle):
        assert sender.timeouts == expected.timeouts
        assert sender.retransmissions == expected.retransmissions
        assert sender.fast_retransmits == expected.fast_retransmits
        assert sender.segments_sent == expected.segments_sent
        assert sender.timeout_times == expected.timeout_times
        assert sender.cwnd_trace == expected.cwnd_trace


@pytest.mark.parametrize("sender_cls", [DeadlineSender, RestartPerAckSender])
def test_shrinking_rto_puts_the_deadline_before_the_outstanding_wake(sender_cls):
    sim, sender = black_hole_sender(sender_cls)
    sender.start()
    sim.run(until=0.05)
    assert sender._rto_deadline == 1.0  # INITIAL_RTO_S from the first segment
    # The first RTT sample (50 ms) drops rto to its 200 ms floor: the restarted
    # deadline (0.25) is earlier than the wake armed for t = 1.0.
    sender.handle_ack(1)
    assert sender.rto == 0.2
    assert sender._rto_deadline == pytest.approx(0.25)
    sim.run(until=2.0)
    # 0.25, then exponential backoff 0.4 and 0.8; the superseded wake at
    # t = 1.0 times nothing out.
    assert sender.timeout_times == pytest.approx([0.25, 0.65, 1.45])
    assert sender.timeouts == 3


def test_late_wake_after_the_flight_empties_is_a_noop():
    sim, sender = black_hole_sender(DeadlineSender)
    sender.start()
    sim.run(until=0.05)
    assert sender.flight_size == 1 and sender._rto_wake == 1.0
    # Acknowledge the only segment without letting the window send more.
    sender._handle_new_ack(0)
    assert sender.flight_size == 0
    assert sender._rto_deadline is None
    assert sim.pending_events == 1  # the wake stays in the heap
    sim.run(until=5.0)
    assert sender.timeouts == 0 and sender.timeout_times == []
    assert sender._rto_wake is None
    assert sim.pending_events == 0


def test_one_live_wake_serves_many_acks():
    """ACKs move the deadline; they do not add engine events."""
    net, senders = lossy_dumbbell(DeadlineSender, seed=0, flows=1, duration_s=10.0)
    sender = senders[0]
    assert len(sender.cwnd_trace) > 300
    assert sender._rto_deadline is not None
    assert sender._rto_wake is not None and sender._rto_wake <= sender._rto_deadline
    wakes = [entry for entry in net.sim._heap if entry[2] == sender._on_rto_wake]
    assert 1 <= len(wakes) <= 2
