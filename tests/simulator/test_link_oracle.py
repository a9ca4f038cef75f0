"""The two-event link, kept as the oracle of the one-event link.

A link used to spend two events on every packet: a ``_transmission_complete``
when serialisation ended (which then looked for the next queued packet) and
a ``_deliver`` one propagation delay later.  :class:`~repro.simulator.link.Link`
now schedules the delivery when its queue *admits* the packet — at the end
of the backlog ahead of it — and its queue keeps start times, not packets.
:class:`TwoEventLink` and :class:`PacketFifo` below are the old link and the
old packet-holding queue, and the tests drive both links with the same
arrivals and demand the same deliveries, counters and drops — the way
``PerTickLoop`` is kept for the parked sender ticks.
"""

import dataclasses
import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.simulator.address import NodeAddress
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Node
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, QueueStats

BANDWIDTH_BPS = 1e6
DELAY_S = 0.01
CAPACITY_BYTES = 4000
#: Serialisation time of a 576-byte packet, spelled the way the link spells it.
TX_576_S = 576 * 8 / BANDWIDTH_BPS


class PacketFifo:
    """The old drop-tail queue: the waiting packets themselves, in a deque."""

    def __init__(self, capacity_bytes) -> None:
        self.capacity_bytes = capacity_bytes
        self._queue = deque()
        self._queued_bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, packet: Packet) -> bool:
        stats = self.stats
        size_bytes = packet.size_bytes
        if self._queued_bytes + size_bytes > self.capacity_bytes:
            stats.dropped_packets += 1
            stats.dropped_bytes += size_bytes
            return False
        self._queue.append(packet)
        self._queued_bytes += size_bytes
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size_bytes
        return True

    def dequeue(self):
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._queued_bytes -= packet.size_bytes
        self.stats.dequeued_packets += 1
        self.stats.dequeued_bytes += packet.size_bytes
        return packet


class TwoEventLink:
    """The old link: a completion event, then a delivery event."""

    def __init__(self, sim, src, dst, bandwidth_bps, delay_s, queue) -> None:
        self.sim = sim
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue
        self.stats = SimpleNamespace(
            transmitted_packets=0, transmitted_bytes=0, delivered_packets=0
        )
        self._busy = False

    @property
    def busy(self) -> bool:
        return self._busy

    def send(self, packet: Packet) -> bool:
        if not self.queue.enqueue(packet):
            return False
        if not self._busy:
            self._start_next_transmission()
        return True

    def _start_next_transmission(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        size_bytes = packet.size_bytes
        tx_time = size_bytes * 8 / self.bandwidth_bps
        stats = self.stats
        stats.transmitted_packets += 1
        stats.transmitted_bytes += size_bytes
        self.sim.schedule(tx_time, self._transmission_complete, packet)

    def _transmission_complete(self, packet: Packet) -> None:
        self.sim.schedule(self.delay_s, self._deliver, packet)
        self._start_next_transmission()

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        self.dst.receive(packet, self)


class Sink(Node):
    """Far end of the link: logs ``(time, tag)`` of every delivery."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "sink", NodeAddress(2))
        self.deliveries = []

    def receive(self, packet, link) -> None:
        self.deliveries.append((self.sim.now, packet.headers["tag"]))


class Harness:
    """One link of the given class between two nodes, with a log of the
    sends it refused."""

    def __init__(self, link_cls, queue=None) -> None:
        self.sim = Simulator()
        self.sink = Sink(self.sim)
        source = Node(self.sim, "source", NodeAddress(1))
        if queue is None:
            fifo = PacketFifo if link_cls is TwoEventLink else DropTailQueue
            queue = fifo(CAPACITY_BYTES)
        self.link = link_cls(
            self.sim, source, self.sink, BANDWIDTH_BPS, DELAY_S, queue=queue
        )
        self.drops = []

    def send(self, tag: int, size_bytes: int = 576) -> bool:
        packet = Packet(NodeAddress(1), NodeAddress(2), size_bytes, headers={"tag": tag})
        admitted = self.link.send(packet)
        if not admitted:
            self.drops.append((self.sim.now, tag))
        return admitted

    def play(self, arrivals) -> None:
        """Schedule every ``(time, size)`` arrival up front, then run dry."""
        for tag, (time, size_bytes) in enumerate(arrivals):
            self.sim.schedule_at(time, self.send, tag, size_bytes)
        self.sim.run()

    def observed(self) -> dict:
        """Everything both links must agree on, read once the run has drained."""
        stats = self.link.stats
        return {
            "deliveries": self.sink.deliveries,
            "drops": self.drops,
            "link": {
                "transmitted_packets": stats.transmitted_packets,
                "transmitted_bytes": stats.transmitted_bytes,
                "delivered_packets": stats.delivered_packets,
            },
            "queue": dataclasses.asdict(self.link.queue.stats),
            "left_in_queue": len(self.link.queue),
        }


def arrival_process(seed: int, count: int = 400):
    """Idle gaps, back-to-back bursts, overflowing bursts, mixed sizes."""
    rng = random.Random(seed)
    arrivals = []
    now = 0.0
    while len(arrivals) < count:
        kind = rng.random()
        if kind < 0.35:  # a lone packet after an idle gap
            now += rng.uniform(0.02, 0.2)
            arrivals.append((now, rng.choice((40, 576, 1500))))
        elif kind < 0.7:  # a burst at one instant, some of it over capacity
            now += rng.uniform(0.0, 0.05)
            for _ in range(rng.randint(2, 12)):
                arrivals.append((now, rng.choice((40, 576, 576, 1500))))
        elif kind < 0.95:  # a paced train around the line rate
            for _ in range(rng.randint(3, 10)):
                now += rng.uniform(0.5, 1.5) * TX_576_S
                arrivals.append((now, 576))
        else:  # larger than the whole queue
            now += rng.uniform(0.0, 0.1)
            arrivals.append((now, CAPACITY_BYTES + rng.randint(1, 500)))
    return arrivals


def both(arrivals):
    observed = []
    for link_cls in (TwoEventLink, Link):
        harness = Harness(link_cls)
        harness.play(arrivals)
        observed.append(harness.observed())
    return observed


@pytest.mark.parametrize("seed", range(6))
def test_same_arrivals_same_everything(seed):
    oracle, actual = both(arrival_process(seed))
    assert actual == oracle
    # The process really exercised what it claims to.
    assert oracle["drops"] and oracle["deliveries"] and oracle["left_in_queue"] == 0
    assert oracle["queue"]["enqueued_packets"] == oracle["queue"]["dequeued_packets"]


def test_arrival_at_exactly_busy_until_starts_at_that_instant():
    arrivals = [(0.0, 576), (0.0 + TX_576_S, 576)]
    oracle, actual = both(arrivals)
    assert actual == oracle
    times = [time for time, _ in actual["deliveries"]]
    assert times == [TX_576_S + DELAY_S, TX_576_S + TX_576_S + DELAY_S]


def test_packet_larger_than_the_queue_is_dropped_on_an_idle_link():
    oracle, actual = both([(0.5, CAPACITY_BYTES + 1), (1.0, CAPACITY_BYTES)])
    assert actual == oracle
    assert actual["drops"] == [(0.5, 0)]
    assert [tag for _, tag in actual["deliveries"]] == [1]
    assert actual["queue"]["dropped_bytes"] == CAPACITY_BYTES + 1


def hand_over_arrival(link_cls, late: bool) -> dict:
    """Seven 576-byte packets at t = 0 (one on the wire, six waiting: one
    packet short of full), then one more at exactly the first hand-over.

    With ``late`` the last arrival is scheduled after the burst ran, so the
    two-event link's completion at that instant sorts ahead of it.
    """
    harness = Harness(link_cls)
    sim = harness.sim

    def burst():
        for tag in range(7):
            harness.send(tag)
        if late:
            sim.schedule_at(TX_576_S, harness.send, 7)

    if not late:
        sim.schedule_at(TX_576_S, harness.send, 7)
    sim.schedule_at(0.0, burst)
    sim.run()
    return harness.observed()


def test_an_arrival_at_the_hand_over_instant_is_admitted_and_the_oracle_in_the_wrong_order_drops_it():
    oracle = hand_over_arrival(TwoEventLink, late=True)
    actual = hand_over_arrival(Link, late=True)
    assert actual == oracle
    # Five packets still wait (2,880 B): the arrival fits.
    assert not actual["drops"]
    assert [tag for _, tag in actual["deliveries"]] == list(range(8))
    # The link does not depend on scheduling order; the oracle did: with the
    # arrival sorted ahead of its completion event it still counted the
    # starting packet and dropped the arrival.
    assert hand_over_arrival(Link, late=False) == actual
    assert hand_over_arrival(TwoEventLink, late=False)["drops"] == [(TX_576_S, 7)]


@pytest.mark.parametrize("link_cls", [TwoEventLink, Link])
def test_busy_mid_serialisation_and_while_draining(link_cls):
    harness = Harness(link_cls)
    sim, link = harness.sim, harness.link
    assert not link.busy
    harness.send(0)
    harness.send(1)
    sim.run(until=TX_576_S / 2)
    assert link.busy  # first packet half on the wire, second waiting
    sim.run(until=TX_576_S, inclusive=False)
    assert link.busy  # at the hand-over instant the second still waits
    sim.run(until=TX_576_S * 1.5)
    assert link.busy and len(link.queue) == 0  # second packet on the wire
    sim.run(until=TX_576_S * 2.5)
    assert not link.busy
    sim.run()
    assert [tag for _, tag in harness.sink.deliveries] == [0, 1]


def test_counters_read_correctly_between_events():
    """The queue retires waiting packets by time, not by event."""
    harness = Harness(Link)
    sim, link = harness.sim, harness.link
    for tag in range(3):
        harness.send(tag)
    assert len(link.queue) == 2 and link.stats.transmitted_packets == 1
    sim.run(until=TX_576_S * 1.5)  # no event has run yet: deliveries come later
    assert sim.events_executed == 0
    assert len(link.queue) == 1 and link.queue.queued_bytes == 576
    assert link.stats.transmitted_packets == 2
    assert link.queue.stats.dequeued_bytes == link.stats.transmitted_bytes == 2 * 576
    sim.run(until=TX_576_S * 2)
    assert len(link.queue) == 0 and link.stats.transmitted_packets == 3


class TestEventCounts:
    """Deterministic gate on the point of the change (not a stopwatch)."""

    N = 25

    def test_spaced_packets_cost_one_event_each(self):
        harness = Harness(Link)
        for n in range(self.N):
            harness.sim.run(until=n * 0.1)
            assert not harness.link.busy
            harness.send(n, 40)
        harness.sim.run()
        assert len(harness.sink.deliveries) == self.N
        assert harness.sim.events_executed == self.N

    def test_back_to_back_burst_costs_one_event_per_packet(self):
        harness = Harness(Link, queue=DropTailQueue(self.N * 40))
        for n in range(self.N):
            harness.send(n, 40)
        harness.sim.run()
        assert len(harness.sink.deliveries) == self.N
        assert harness.sim.events_executed == self.N

    def test_the_oracle_pays_two_events_for_every_packet(self):
        harness = Harness(TwoEventLink, queue=PacketFifo(self.N * 40))
        for n in range(self.N):
            harness.send(n, 40)
        harness.sim.run()
        assert harness.sim.events_executed == 2 * self.N
