"""Tests of TCP Reno and the CBR sources over the simulator."""

import pytest

from repro.experiments import Scenario
from repro.simulator import NetworkGraph, dumbbell_topology
from repro.transport import CbrSink, CbrSource, OnOffCbrSource, TcpConnection


def make_dumbbell(bandwidth_bps=1_000_000.0):
    return NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=bandwidth_bps))


class TestTcpReno:
    def test_single_flow_fills_the_bottleneck(self):
        net = make_dumbbell(500_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=30.0)
        rate = conn.monitor.average_rate_kbps(5, 30)
        assert rate > 400.0, f"expected near-bottleneck throughput, got {rate} kbps"

    def test_goodput_cannot_exceed_bottleneck(self):
        net = make_dumbbell(500_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=30.0)
        assert conn.monitor.average_rate_kbps(0, 30) <= 510.0

    def test_two_flows_share_fairly(self):
        net = make_dumbbell(500_000.0)
        conns = []
        for i in range(2):
            src = net.add_sender()
            dst = net.add_receiver()
            conns.append(TcpConnection.create(src, dst, port=10 + i))
        for conn in conns:
            conn.start()
        net.run(until=60.0)
        rates = [c.monitor.average_rate_kbps(10, 60) for c in conns]
        assert min(rates) > 0.25 * max(rates), f"unfair shares: {rates}"
        assert sum(rates) > 400.0

    def test_loss_triggers_retransmissions(self):
        net = make_dumbbell(200_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=20.0)
        assert conn.sender.retransmissions > 0
        assert conn.sender.fast_retransmits > 0

    def test_cwnd_grows_in_slow_start_without_loss(self):
        net = make_dumbbell(10_000_000.0)  # effectively lossless
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=2.0)
        assert conn.sender.cwnd > 10

    def test_rtt_estimate_reflects_path(self):
        net = make_dumbbell(1_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=5.0)
        # Propagation RTT is 80 ms; the estimate includes queueing so it must
        # be at least that and within a sane bound.
        assert conn.sender.srtt is not None
        assert 0.08 <= conn.sender.srtt < 1.0

    def test_sink_counts_goodput_once_per_segment(self):
        net = make_dumbbell(1_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=10.0)
        sent_payload = conn.sender.segments_sent * conn.sender.segment_bytes
        assert conn.sink.monitor.total_bytes <= sent_payload

    def test_flight_size_never_negative(self):
        net = make_dumbbell(300_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=15.0)
        assert conn.sender.flight_size >= 0

    def test_acks_flow_back(self):
        net = make_dumbbell(1_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        conn = TcpConnection.create(src, dst, port=10)
        conn.start()
        net.run(until=5.0)
        assert conn.sink.acks_sent > 0
        assert conn.sender.highest_acked > 0


class TestCbr:
    def test_cbr_rate_matches_configuration(self):
        net = make_dumbbell(2_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        sink = CbrSink(dst, port=9)
        source = CbrSource(src, dst, port=9, rate_bps=400_000.0)
        source.start()
        net.run(until=20.0)
        rate = sink.monitor.average_rate_kbps(1, 20)
        assert rate == pytest.approx(400.0, rel=0.05)

    def test_cbr_stop_halts_traffic(self):
        net = make_dumbbell(2_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        sink = CbrSink(dst, port=9)
        source = CbrSource(src, dst, port=9, rate_bps=400_000.0)
        source.start()
        net.sim.schedule(5.0, source.stop)
        net.run(until=20.0)
        assert sink.monitor.average_rate_kbps(10, 20) == pytest.approx(0.0, abs=1.0)

    def test_restart_within_one_interval_sends_one_stream(self):
        """Off for 10 ms, less than the 57.6-ms packet interval: the send the
        source scheduled before stopping falls after its restart and must do
        nothing.  The instants are those of the source that cancelled that
        send; a source that only asks whether it is running sends it too."""
        net = make_dumbbell(1_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        net.build_routes()
        sent = []
        host_send = src.send

        def recording_send(packet):
            sent.append(net.sim.now)
            return host_send(packet)

        src.send = recording_send
        source = OnOffCbrSource(src, dst, port=9, rate_bps=80_000.0, on_s=0.1, off_s=0.01)
        assert source.source.interval_s == 0.0576
        source.start()
        net.run(until=0.5)
        assert sent == [
            0.0, 0.0576, 0.11, 0.1676, 0.22000000000000003, 0.2776,
            0.33000000000000007, 0.38760000000000006, 0.44000000000000006, 0.49760000000000004,
        ]
        assert source.source.packets_sent == 10

    def test_onoff_duty_cycle_halves_average_rate(self):
        net = make_dumbbell(2_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        sink = CbrSink(dst, port=9)
        source = OnOffCbrSource(src, dst, port=9, rate_bps=400_000.0, on_s=5.0, off_s=5.0)
        source.start()
        net.run(until=40.0)
        rate = sink.monitor.average_rate_kbps(0, 40)
        assert rate == pytest.approx(200.0, rel=0.15)

    def test_active_window_burst(self):
        net = make_dumbbell(2_000_000.0)
        src = net.add_sender()
        dst = net.add_receiver()
        sink = CbrSink(dst, port=9)
        source = OnOffCbrSource(
            src, dst, port=9, rate_bps=800_000.0, on_s=30.0, off_s=1.0, active_window=(10.0, 20.0)
        )
        source.start()
        net.run(until=30.0)
        assert sink.monitor.average_rate_kbps(0, 9) == pytest.approx(0.0, abs=1.0)
        assert sink.monitor.average_rate_kbps(11, 19) > 700.0
        assert sink.monitor.average_rate_kbps(22, 30) == pytest.approx(0.0, abs=1.0)

    def test_invalid_rate_rejected(self):
        net = make_dumbbell()
        src = net.add_sender()
        dst = net.add_receiver()
        with pytest.raises(ValueError):
            CbrSource(src, dst, port=9, rate_bps=0.0)

    def test_invalid_onoff_periods_rejected(self):
        net = make_dumbbell()
        src = net.add_sender()
        dst = net.add_receiver()
        with pytest.raises(ValueError):
            OnOffCbrSource(src, dst, port=9, rate_bps=1e5, on_s=0.0, off_s=5.0)
