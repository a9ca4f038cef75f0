"""The two-event link, kept as the oracle of the one-event link.

Until this suite's PR a link spent two events on every packet: a
``_transmission_complete`` when serialisation ended (which then looked for
the next queued packet) and a ``_deliver`` one propagation delay later.
:class:`~repro.simulator.link.Link` now schedules the delivery when
serialisation *starts* and arms a ``_drain`` event only while packets wait.
:class:`TwoEventLink` below is the old implementation, verbatim, and the
tests drive both with the same arrivals and demand the same deliveries,
counters, drops and marks — the way ``PerTickLoop`` is kept for the parked
sender ticks.
"""

import dataclasses
import random

import pytest

from repro.simulator.address import NodeAddress
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Node
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, ECNMarkingQueue

BANDWIDTH_BPS = 1e6
DELAY_S = 0.01
CAPACITY_BYTES = 4000
#: Serialisation time of a 576-byte packet, spelled the way the link spells it.
TX_576_S = 576 * 8 / BANDWIDTH_BPS


class TwoEventLink(Link):
    """The parent commit's link: a completion event, then a delivery event."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._busy = False

    @property
    def busy(self) -> bool:
        return self._busy

    def send(self, packet: Packet) -> bool:
        accepted = self.queue.enqueue(packet)
        if not accepted:
            if self.on_drop is not None:
                self.on_drop(packet)
            pool = packet._pool
            if pool is not None:
                pool.release(packet)
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
        self.sim.call_after(tx_time, self._transmission_complete, packet)

    def _transmission_complete(self, packet: Packet) -> None:
        self.sim.call_after(self.delay_s, self._deliver, packet)
        self._start_next_transmission()


class Sink(Node):
    """Far end of the link: logs ``(time, tag, ecn)`` of every delivery."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "sink", NodeAddress(2))
        self.deliveries = []

    def receive(self, packet, link) -> None:
        self.deliveries.append((self.sim.now, packet.headers["tag"], packet.ecn))


class Harness:
    """One link of the given class between two nodes, with a drop log."""

    def __init__(self, link_cls, queue_factory) -> None:
        self.sim = Simulator()
        self.sink = Sink(self.sim)
        source = Node(self.sim, "source", NodeAddress(1))
        self.link = link_cls(
            self.sim, source, self.sink, BANDWIDTH_BPS, DELAY_S, queue=queue_factory()
        )
        self.drops = []
        self.link.on_drop = lambda packet: self.drops.append(
            (self.sim.now, packet.headers["tag"])
        )

    def send(self, tag: int, size_bytes: int = 576) -> bool:
        packet = Packet(NodeAddress(1), NodeAddress(2), size_bytes, headers={"tag": tag})
        return self.link.send(packet)

    def play(self, arrivals) -> None:
        """Schedule every ``(time, size)`` arrival up front, then run dry."""
        for tag, (time, size_bytes) in enumerate(arrivals):
            self.sim.call_at(time, self.send, tag, size_bytes)
        self.sim.run()

    def observed(self) -> dict:
        return {
            "deliveries": self.sink.deliveries,
            "drops": self.drops,
            "link": dict(vars(self.link.stats)),
            "queue": dataclasses.asdict(self.link.queue.stats),
            "left_in_queue": len(self.link.queue),
        }


QUEUES = {
    "drop-tail": lambda: DropTailQueue(CAPACITY_BYTES),
    "ecn": lambda: ECNMarkingQueue(CAPACITY_BYTES, mark_threshold=0.4),
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


def both(queue_name, arrivals):
    observed = []
    for link_cls in (TwoEventLink, Link):
        harness = Harness(link_cls, QUEUES[queue_name])
        harness.play(arrivals)
        observed.append(harness.observed())
    return observed


@pytest.mark.parametrize("queue_name", sorted(QUEUES))
@pytest.mark.parametrize("seed", range(6))
def test_same_arrivals_same_everything(queue_name, seed):
    oracle, actual = both(queue_name, arrival_process(seed))
    assert actual == oracle
    # The process really exercised what it claims to.
    assert oracle["drops"] and oracle["deliveries"] and oracle["left_in_queue"] == 0
    assert oracle["queue"]["enqueued_packets"] == oracle["queue"]["dequeued_packets"]
    if queue_name == "ecn":
        assert oracle["queue"]["marked_packets"] > 0
        assert any(ecn for _, _, ecn in oracle["deliveries"])


@pytest.mark.parametrize("queue_name", sorted(QUEUES))
def test_arrival_at_exactly_busy_until_starts_at_that_instant(queue_name):
    arrivals = [(0.0, 576), (0.0 + TX_576_S, 576)]
    oracle, actual = both(queue_name, arrivals)
    assert actual == oracle
    times = [time for time, _, _ in actual["deliveries"]]
    assert times == [TX_576_S + DELAY_S, TX_576_S + TX_576_S + DELAY_S]


@pytest.mark.parametrize("queue_name", sorted(QUEUES))
def test_packet_larger_than_the_queue_is_dropped_on_an_idle_link(queue_name):
    oracle, actual = both(queue_name, [(0.5, CAPACITY_BYTES + 1), (1.0, CAPACITY_BYTES)])
    assert actual == oracle
    assert actual["drops"] == [(0.5, 0)]
    assert [tag for _, tag, _ in actual["deliveries"]] == [1]
    assert actual["queue"]["dropped_bytes"] == CAPACITY_BYTES + 1


@pytest.mark.parametrize("link_cls", [TwoEventLink, Link])
def test_busy_mid_serialisation_and_while_draining(link_cls):
    harness = Harness(link_cls, QUEUES["drop-tail"])
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
    assert [tag for _, tag, _ in harness.sink.deliveries] == [0, 1]


class TestEventCounts:
    """Deterministic gate on the point of the change (not a stopwatch)."""

    N = 25

    def test_spaced_packets_cost_one_event_each(self):
        harness = Harness(Link, QUEUES["drop-tail"])
        for n in range(self.N):
            harness.sim.run(until=n * 0.1)
            assert not harness.link.busy
            harness.send(n, 40)
        harness.sim.run()
        assert len(harness.sink.deliveries) == self.N
        assert harness.sim.events_executed == self.N

    def test_back_to_back_burst_costs_two_events_less_one(self):
        harness = Harness(Link, lambda: DropTailQueue(self.N * 40))
        for n in range(self.N):
            harness.send(n, 40)
        harness.sim.run()
        assert len(harness.sink.deliveries) == self.N
        assert harness.sim.events_executed == 2 * self.N - 1

    def test_the_oracle_pays_two_events_for_every_packet(self):
        harness = Harness(TwoEventLink, lambda: DropTailQueue(self.N * 40))
        for n in range(self.N):
            harness.send(n, 40)
        harness.sim.run()
        assert harness.sim.events_executed == 2 * self.N
