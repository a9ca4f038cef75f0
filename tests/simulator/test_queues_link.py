"""Tests of drop-tail queues and point-to-point links."""

import pytest

from repro.simulator.address import NodeAddress
from repro.simulator.engine import Simulator
from repro.simulator.link import Link, default_buffer_bytes
from repro.simulator.node import Host
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue


def make_packet(size=500, src=1, dst=2):
    return Packet(source=NodeAddress(src), destination=NodeAddress(dst), size_bytes=size)


class Clock:
    """The queue's clock: a bare ``now``."""

    now = 0.0


def clocked(queue):
    queue.clock = Clock()
    return queue


def wait(queue, packet, start):
    """Admit ``packet`` at the queue's current time to start at ``start``."""
    return queue.admit(packet, queue.clock.now, start)


class TestDropTailQueue:
    def test_accepts_until_capacity(self):
        queue = clocked(DropTailQueue(capacity_bytes=1000))
        assert wait(queue, make_packet(400), 1.0)
        assert wait(queue, make_packet(400), 2.0)
        assert not wait(queue, make_packet(400), 3.0)
        assert queue.stats.dropped_packets == 1

    def test_fifo_order(self):
        queue = clocked(DropTailQueue(capacity_bytes=10_000))
        wait(queue, make_packet(500), 1.0)
        wait(queue, make_packet(300), 2.0)
        queue.clock.now = 1.0
        assert len(queue) == 1 and queue.stats.dequeued_bytes == 500
        queue.clock.now = 2.0
        assert len(queue) == 0 and queue.stats.dequeued_bytes == 800

    def test_packet_that_starts_at_once_never_waits(self):
        queue = clocked(DropTailQueue(1000))
        queue.clock.now = 5.0
        assert wait(queue, make_packet(1000), 4.0)
        assert len(queue) == 0
        stats = queue.stats
        assert stats.enqueued_packets == stats.dequeued_packets == 1

    def test_byte_accounting(self):
        queue = clocked(DropTailQueue(capacity_bytes=2000))
        wait(queue, make_packet(500), 1.0)
        wait(queue, make_packet(300), 2.0)
        assert queue.queued_bytes == 800
        queue.clock.now = 1.5
        assert queue.queued_bytes == 300

    def test_conservation_invariant(self):
        queue = clocked(DropTailQueue(capacity_bytes=1500))
        for n in range(5):
            wait(queue, make_packet(500), 1.0 + n)
        queue.clock.now = 1.0
        assert queue.stats.dropped_packets == 2
        assert queue.stats.conservation_holds(currently_queued=len(queue))

    def test_hand_over_instant_counts_the_starting_packet_as_gone(self):
        queue = clocked(DropTailQueue(capacity_bytes=1000))
        wait(queue, make_packet(500), 1.0)
        wait(queue, make_packet(500), 2.0)
        assert not wait(queue, make_packet(500), 3.0)
        queue.clock.now = 1.0
        assert wait(queue, make_packet(500), 3.0)
        assert queue.stats.dropped_packets == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestDefaultBuffer:
    def test_two_bdp_sizing(self):
        # 1 Mbps * 20 ms = 2500 bytes BDP; twice that is 5000 bytes.
        assert default_buffer_bytes(1_000_000, 0.020) == 5000

    def test_floor_applies_to_tiny_links(self):
        assert default_buffer_bytes(10_000, 0.001) >= 1600


class _Recorder(Host):
    """Host that records packet arrival times."""

    def __init__(self, sim, name, address):
        super().__init__(sim, name, address)
        self.arrivals = []

    def receive(self, packet, link):
        super().receive(packet, link)
        self.arrivals.append((self.sim.now, packet))


def make_link(bandwidth=1_000_000.0, delay=0.01, capacity=100_000):
    sim = Simulator()
    src = Host(sim, "src", NodeAddress(1))
    dst = _Recorder(sim, "dst", NodeAddress(2))
    link = Link(sim, src, dst, bandwidth, delay, DropTailQueue(capacity))
    src.attach_link(link)
    return sim, src, dst, link


class TestLink:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim, _, dst, link = make_link(bandwidth=1_000_000.0, delay=0.01)
        packet = make_packet(size=1250)  # 10,000 bits -> 10 ms serialization
        link.send(packet)
        sim.run()
        assert len(dst.arrivals) == 1
        assert dst.arrivals[0][0] == pytest.approx(0.02)

    def test_back_to_back_packets_serialize_sequentially(self):
        sim, _, dst, link = make_link(bandwidth=1_000_000.0, delay=0.0)
        for _ in range(3):
            link.send(make_packet(size=1250))
        sim.run()
        times = [t for t, _ in dst.arrivals]
        assert times == pytest.approx([0.01, 0.02, 0.03])

    def test_queue_overflow_drops(self):
        sim, _, dst, link = make_link(bandwidth=100_000.0, delay=0.0, capacity=1000)
        results = [link.send(make_packet(size=600)) for _ in range(4)]
        sim.run()
        # First packet starts transmitting immediately (dequeued), then the
        # queue holds at most one more 600-byte packet.
        assert results[0] and results[1]
        assert not all(results)
        assert link.queue.stats.dropped_packets >= 1

    def test_a_refused_send_is_never_delivered(self):
        sim, _, dst, link = make_link(bandwidth=100_000.0, delay=0.0, capacity=700)
        packets = [make_packet(size=600) for _ in range(4)]
        accepted = [packet for packet in packets if link.send(packet)]
        sim.run()
        assert len(accepted) < len(packets)
        assert [packet for _, packet in dst.arrivals] == accepted
        assert link.queue.stats.dropped_packets == len(packets) - len(accepted)

    def test_stats_count_transmissions(self):
        sim, _, dst, link = make_link()
        for _ in range(5):
            link.send(make_packet())
        sim.run()
        assert link.stats.transmitted_packets == 5
        assert link.stats.delivered_packets == 5
        assert link.stats.transmitted_bytes == 5 * 500

    def test_delivery_hands_over_the_sent_packet_unchanged(self):
        sim, _, dst, link = make_link()
        packet = make_packet()
        link.send(packet)
        sim.run()
        delivered = dst.arrivals[0][1]
        assert delivered is packet
        assert (delivered.source, delivered.destination, delivered.size_bytes) == (
            NodeAddress(1), NodeAddress(2), 500,
        )

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        a = Host(sim, "a", NodeAddress(1))
        b = Host(sim, "b", NodeAddress(2))
        with pytest.raises(ValueError):
            Link(sim, a, b, 0.0, 0.01)
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e6, -0.01)

    def test_throughput_matches_bandwidth(self):
        sim, _, dst, link = make_link(bandwidth=1_000_000.0, delay=0.0, capacity=10_000_000)
        count = 100
        for _ in range(count):
            link.send(make_packet(size=1250))
        sim.run()
        # 100 packets * 10,000 bits at 1 Mbps should take 1 second.
        assert dst.arrivals[-1][0] == pytest.approx(1.0)
