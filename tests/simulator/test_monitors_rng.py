"""Tests of the measurement instrumentation and random streams."""

import json
import math
from fractions import Fraction

import pytest

from repro.simulator.address import NodeAddress
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.monitors import (
    LinkMonitor,
    OverheadAccumulator,
    ThroughputMonitor,
    window_rate_bps,
)
from repro.simulator.node import Host
from repro.simulator.packet import Packet
from repro.simulator.rng import RandomStreams


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestThroughputMonitor:
    def test_series_bins_bytes(self):
        clock = FakeClock()
        monitor = ThroughputMonitor(clock)
        monitor.record(1250, time_s=0.5)   # 10 kbit in bin 0
        monitor.record(2500, time_s=1.5)   # 20 kbit in bin 1
        series = monitor.series()
        assert series[0].rate_bps == pytest.approx(10_000)
        assert series[1].rate_bps == pytest.approx(20_000)

    def test_average_rate_over_interval(self):
        monitor = ThroughputMonitor(FakeClock())
        for second in range(10):
            monitor.record(12_500, time_s=second + 0.5)  # 100 kbps steady
        assert monitor.average_rate_bps(0, 10) == pytest.approx(100_000)
        assert monitor.average_rate_kbps(0, 10) == pytest.approx(100.0)

    def test_average_rate_partial_window(self):
        monitor = ThroughputMonitor(FakeClock())
        monitor.record(12_500, time_s=0.5)
        monitor.record(12_500, time_s=1.5)
        # Averaging over the first second only sees the first bin.
        assert monitor.average_rate_bps(0, 1) == pytest.approx(100_000)

    def test_empty_monitor_is_zero(self):
        monitor = ThroughputMonitor(FakeClock())
        assert monitor.average_rate_bps(0, 10) == 0.0
        assert monitor.series() == []

    def test_series_includes_idle_bins(self):
        monitor = ThroughputMonitor(FakeClock())
        monitor.record(1000, time_s=0.2)
        monitor.record(1000, time_s=3.2)
        series = monitor.series()
        assert len(series) == 4
        assert series[1].rate_bps == 0.0

    def test_smoothed_series_averages_window(self):
        monitor = ThroughputMonitor(FakeClock())
        monitor.record(1250, time_s=0.5)
        monitor.record(3750, time_s=1.5)
        smoothed = monitor.smoothed_series(window_bins=2)
        assert smoothed[1].rate_bps == pytest.approx((10_000 + 30_000) / 2)

    def test_records_with_simulator_clock(self):
        sim = Simulator()
        monitor = ThroughputMonitor(sim)
        sim.schedule(2.5, lambda: monitor.record(1250))
        sim.run()
        assert monitor.series()[2].rate_bps == pytest.approx(10_000)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMonitor(FakeClock()).record(-1)

    def test_totals(self):
        monitor = ThroughputMonitor(FakeClock())
        monitor.record(100, time_s=0.0)
        monitor.record(200, time_s=0.5)
        assert monitor.total_bytes == 300
        assert monitor.total_packets == 2


#: (byte count, explicit timestamp) records; the last one steps back in time
#: into bins the table has not seen (1, 0, 4) and into one it holds (1).
RECORDINGS = {
    "empty": [],
    "steady": [(1250, 0.25), (977, 0.9), (3333, 1.5), (12_500, 2.75), (7, 6.01)],
    "out-of-order": [(1000, 2.2), (1500, 3.7), (900, 1.4), (4000, 6.5), (60, 0.1),
                     (333, 1.9), (2024, 4.4), (5, 7.0)],
}

#: Windows cutting bins mid-way, aligned to edges, reaching past the last
#: bin, empty or inverted, and open-ended (``None``: up to the last bin).
WINDOWS = [(0.0, None), (0.3, 2.6), (1.0, 3.0), (0.5, 0.75), (2.5, 40.0),
           (9.0, 12.0), (3.0, 3.0), (4.0, 1.0), (1.7, None)]


class TestWindowRate:
    """``average_rate_bps`` is :func:`window_rate_bps` over :meth:`bins`, to the
    bit, also after the bins have been through a JSON result document."""

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("recording", sorted(RECORDINGS))
    def test_monitor_average_is_the_window_over_its_bins(self, recording, window):
        monitor = ThroughputMonitor(FakeClock())
        for nbytes, time_s in RECORDINGS[recording]:
            monitor.record(nbytes, time_s=time_s)
        start, end = window
        documented = json.loads(json.dumps(monitor.bins()))
        expected = monitor.average_rate_bps(start, end)
        assert window_rate_bps(monitor.bins(), start, end) == expected
        assert window_rate_bps(documented, start, end) == expected

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("recording", sorted(RECORDINGS))
    def test_window_rate_matches_the_raw_records(self, recording, window):
        """An exact oracle from the raw records: each record lands in the
        one-second bin ``floor(t)`` and counts for the share of that bin the
        window covers."""
        records = RECORDINGS[recording]
        monitor = ThroughputMonitor(FakeClock())
        for nbytes, time_s in records:
            monitor.record(nbytes, time_s=time_s)
        start, end = (Fraction(bound) if bound is not None else None for bound in window)
        if end is None:
            end = max((math.floor(t) + 1 for _, t in records), default=start)
        expected = 0.0
        if end > start:
            inside = sum(
                nbytes * max(0, min(math.floor(t) + 1, end) - max(math.floor(t), start))
                for nbytes, t in records
            )
            expected = float(inside * 8 / (end - start))
        assert monitor.average_rate_bps(*window) == pytest.approx(expected, rel=1e-12)

    def test_bins_keep_the_table_order(self):
        monitor = ThroughputMonitor(FakeClock())
        for nbytes, time_s in RECORDINGS["out-of-order"]:
            monitor.record(nbytes, time_s=time_s)
        assert monitor.bins() == [
            (2, 1000), (1, 1233), (3, 1500), (0, 60), (4, 2024), (6, 4000), (7, 5)
        ]


class TestLinkMonitor:
    """A 576-byte packet takes 4.608 ms to serialize on the 1 Mbps link."""

    TX_S = 576 * 8 / 1e6

    def build(self):
        sim = Simulator()
        a, b = Host(sim, "a", NodeAddress(1)), Host(sim, "b", NodeAddress(2))
        link = Link(sim, a, b, bandwidth_bps=1e6, delay_s=0.01)
        return sim, link

    @staticmethod
    def send(link):
        assert link.send(Packet(NodeAddress(1), NodeAddress(2), 576))

    def test_mid_packet_counts_only_the_bits_already_sent(self):
        sim, link = self.build()
        monitor = LinkMonitor(link, sim)
        self.send(link)
        sim.run(until=0.001)
        # Not 4.608: the whole packet was booked when serialization started.
        assert monitor.utilisation() == pytest.approx(1.0)
        sim.run(until=0.003)
        assert monitor.utilisation() == pytest.approx(1.0)

    def test_at_completion_and_across_an_idle_gap(self):
        sim, link = self.build()
        monitor = LinkMonitor(link, sim)
        self.send(link)
        sim.run(until=self.TX_S)
        assert monitor.utilisation() == pytest.approx(1.0)
        sim.run(until=4 * self.TX_S)
        assert monitor.utilisation() == pytest.approx(0.25)
        self.send(link)
        sim.run(until=4.5 * self.TX_S)
        assert monitor.utilisation() == pytest.approx(1.5 / 4.5)

    def test_monitor_created_mid_packet(self):
        sim, link = self.build()
        self.send(link)
        sim.run(until=0.001)
        monitor = LinkMonitor(link, sim)
        assert monitor.utilisation() == 0.0  # no time has passed yet
        sim.run(until=0.002)
        assert monitor.utilisation() == pytest.approx(1.0)
        sim.run(until=0.001 + 2 * (self.TX_S - 0.001))
        assert monitor.utilisation() == pytest.approx(0.5)

    def test_never_above_one_under_backlog(self):
        sim, link = self.build()
        monitor = LinkMonitor(link, sim)
        for _ in range(5):
            self.send(link)
        for step in range(1, 40):
            sim.run(until=step * 0.001)
            assert monitor.utilisation() <= 1.0 + 1e-9
        assert monitor.utilisation() == pytest.approx(5 * self.TX_S / 0.039)


class TestOverheadAccumulator:
    def test_percentages(self):
        acc = OverheadAccumulator()
        acc.record_data_packet(4000, delta_bits=32)
        acc.record_data_packet(4000, delta_bits=16)
        acc.record_sigma_packet(80)
        delta_pct, sigma_pct = acc.as_percentages()
        assert delta_pct == pytest.approx(100 * 48 / 8000)
        assert sigma_pct == pytest.approx(100 * 80 / 8000)

    def test_zero_data_is_zero_overhead(self):
        acc = OverheadAccumulator()
        assert acc.delta_overhead == 0.0
        assert acc.sigma_overhead == 0.0


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        x = [streams.stream("x").random() for _ in range(5)]
        y = [streams.stream("y").random() for _ in range(5)]
        assert x != y

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_spawn_is_independent_of_parent(self):
        parent = RandomStreams(3)
        child = parent.spawn("child")
        assert parent.stream("x").random() != child.stream("x").random()

    def test_names_listing(self):
        streams = RandomStreams(0)
        streams.stream("b")
        streams.stream("a")
        assert streams.names() == ["a", "b"]
