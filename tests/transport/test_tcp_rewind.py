"""Regression tests for the TCP Reno go-back-N rewind after burst loss.

The seed repo had a starvation bug: an RTO did not rewind ``next_seq``, so
after a burst loss ``flight_size`` stayed inflated, the window never admitted
new segments, and the flow trickled out one retransmission per exponentially
backed-off RTO for the rest of the experiment.  These tests pin the fix at
two levels: the state machine's rewind itself, and end-to-end recovery of a
flow that loses a whole window to a CBR burst.
"""

from repro.experiments import Scenario, ScenarioSpec, CbrDecl, TcpDecl
from repro.simulator.topology import NetworkGraph, dumbbell_topology
from repro.transport.tcp import TcpConnection


def build_connection():
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=1_000_000.0))
    source = net.add_sender()
    sink = net.add_receiver()
    net.build_routes()
    return net, TcpConnection.create(source, sink, port=9000)


class TestGoBackNRewind:
    def test_timeout_rewinds_to_highest_ack(self):
        """An RTO must presume every unacked segment lost and rewind."""
        net, connection = build_connection()
        sender = connection.sender
        sender._started = True
        sender.cwnd = 8.0
        sender._send_allowed()
        assert sender.next_seq == 8
        assert sender.flight_size == 8

        sender._on_timeout()
        # Rewound to highest_acked + 1 (= 0) and retransmitted exactly it.
        assert sender.next_seq == 1
        assert sender.flight_size == 1
        assert sender.timeouts == 1
        assert sender.cwnd == 1.0
        # Karn's rule: every presumed-lost segment is flagged so later sends
        # through the normal window path count as retransmissions and are
        # never RTT-sampled.
        assert set(range(8)) <= sender._retransmitted
        assert not sender._send_times

    def test_window_reopening_resends_presumed_lost_segments(self):
        """Segments resent after the rewind still count as retransmissions."""
        net, connection = build_connection()
        sender = connection.sender
        sender._started = True
        sender.cwnd = 4.0
        sender._send_allowed()
        sender._on_timeout()
        before = sender.retransmissions
        # An ACK for the retransmitted head reopens the window over the
        # presumed-lost range.
        sender.handle_ack(1)
        assert sender.retransmissions > before

    def test_flow_recovers_from_burst_loss_within_bounded_rtos(self):
        """End to end: a window-wiping CBR burst must not starve the flow."""
        spec = ScenarioSpec(
            name="tcp-burst-recovery",
            protected=False,
            topology_params={"bottleneck_bandwidth_bps": 500_000.0},
            tcp=(TcpDecl("t1"),),
            cbr=(
                CbrDecl(
                    "burst",
                    rate_bps=600_000.0,  # oversubscribes the bottleneck
                    on_s=5.0,
                    off_s=0.5,
                    active_window=(10.0, 15.0),
                ),
            ),
            duration_s=40.0,
        )
        scenario = Scenario.from_spec(spec)
        scenario.run(40.0)
        connection = scenario.tcp_connections[0]
        before = connection.monitor.average_rate_kbps(3.0, 10.0)
        after = connection.monitor.average_rate_kbps(20.0, 40.0)
        # Without the rewind the post-burst goodput collapses to one segment
        # per backed-off RTO (a few Kbps at best).
        assert after > 0.5 * before
        assert after > 100.0
        # Recovery must take a bounded number of RTOs, not one per segment.
        assert connection.sender.timeouts <= 10
