"""Parked sender ticks against the per-tick loop they replaced.

A layered sender keeps the ticks of memberless groups in a local heap and
replays them on demand (``repro.multicast_cc.sender_base``).  The oracle here
is the loop it replaced — every tick an engine event, jitter drawn with
``rng.uniform(0.9, 1.1)`` — kept as a test-only subclass.  Both senders must
put the same packets on the wire at the same times and end with the same
counters and the same RNG state, so a draw or membership read that skipped
the catch-up fails here and not in a digest three layers away.
"""

import pytest

from repro.core.sigma import SigmaRouterAgent
from repro.core.timeslot import SlotClock
from repro.experiments import scenario as scenario_module
from repro.experiments import scenario_spec
from repro.experiments.metrics import RunResult, collect_metrics
from repro.experiments.runner import run_scenario
from repro.multicast_cc import (
    FlidDlReceiver,
    FlidDlSender,
    FlidDsReceiver,
    FlidDsSender,
    SessionSpec,
    headers,
)
from repro.simulator import NetworkGraph, dumbbell_topology, install_igmp
from repro.simulator.node import PacketAgent


class PerTickLoop:
    """The transmit loop before parking: a suppressed tick is an engine event."""

    def _transmit_group(self, group):
        interval = self._interval_s[group]
        members = self.network.multicast.members(self._group_address[group])
        if self.suppress_unsubscribed_groups and not members:
            self._packets_suppressed += 1
        else:
            self._send_group_packet(group, interval)
        self.sim.schedule(
            interval * self.rng.uniform(0.9, 1.1), self._transmit_group, group
        )


class PerTickDlSender(PerTickLoop, FlidDlSender):
    pass


class PerTickDsSender(PerTickLoop, FlidDsSender):
    pass


SENDERS = {
    "dl": (FlidDlSender, PerTickDlSender),
    "ds": (FlidDsSender, PerTickDsSender),
}


class Tap(PacketAgent):
    """Records what a receiver host is handed, as the receiver sees it."""

    def __init__(self, sim):
        self.sim = sim
        self.trace = []

    def handle_packet(self, packet):
        h = packet.headers
        self.trace.append(
            (
                self.sim.now,
                h[headers.GROUP],
                h[headers.GROUP_SEQ],
                h[headers.SLOT],
                h[headers.UPGRADE_GROUPS],
                h[headers.CLOSING],
            )
        )


def sender_state(sender):
    return (
        sender.packets_sent,
        sender.bytes_sent,
        sender.packets_suppressed,
        dict(sender._group_seq),
        sender.rng.getstate(),
    )


def run_dumbbell(protocol, sender_class, until_s=24.0):
    """One session whose groups go zero -> some -> zero -> some members.

    The sender starts alone (every group idle), the first receiver joins
    late and climbs, is then torn out of every group, and a second receiver
    on another host joins afresh.
    """
    protected = protocol == "ds"
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=400_000.0), seed=11)
    slot_s = 0.25 if protected else 0.5
    spec = SessionSpec("s", slot_duration_s=slot_s).with_addresses(net.allocate_groups(10))
    if protected:
        clock = SlotClock(net.sim, slot_s)
        SigmaRouterAgent(net.edge_router, net.multicast, clock)
        clock.start()
        receiver_class = FlidDsReceiver
    else:
        install_igmp(net.edge_router, net.multicast)
        receiver_class = FlidDlReceiver
    sender_host = net.add_sender()
    hosts = [net.add_receiver(), net.add_receiver()]
    net.build_routes()
    sender = sender_class(net, sender_host, spec)
    receivers = [receiver_class(net, host, spec) for host in hosts]
    # The first receiver can be silenced: its slot timer (bound when it
    # starts) keeps firing but evaluates nothing.
    evaluate = receivers[0]._on_timer
    silenced = []
    receivers[0]._on_timer = lambda: silenced or evaluate()
    taps = [Tap(net.sim) for _ in hosts]
    for host, tap in zip(hosts, taps):
        for address in spec.group_addresses:
            host.register_group_agent(address, tap)

    def tear_out():
        silenced.append(True)
        for group in net.multicast.groups_of(hosts[0]):
            net.multicast.leave(hosts[0], group, immediate=True)

    sender.start()
    receivers[0].start(2.3)
    net.sim.schedule(11.1, tear_out)
    receivers[1].start(14.2)
    net.run(until=until_s)
    return net, sender, taps


@pytest.mark.parametrize("protocol", sorted(SENDERS))
def test_parked_sender_matches_per_tick_sender(protocol):
    parked_class, per_tick_class = SENDERS[protocol]
    net, sender, taps = run_dumbbell(protocol, parked_class)
    ref_net, ref_sender, ref_taps = run_dumbbell(protocol, per_tick_class)

    # The case exercises what it claims to: late join, drop to zero, rejoin.
    first, second = (tap.trace for tap in taps)
    assert first and first[0][0] > 2.3 and first[-1][0] < 11.2
    assert second and second[0][0] > 14.2
    assert max(group for _, group, *_ in first) >= 3
    assert sender._parked and not ref_sender._parked

    assert [tap.trace for tap in taps] == [tap.trace for tap in ref_taps]
    assert sender_state(sender) == sender_state(ref_sender)
    assert net.sim.events_executed < ref_net.sim.events_executed


def test_packets_suppressed_is_exact_between_events():
    """Reading the counter catches up first, wherever the clock stands."""
    readings = []
    for sender_class in SENDERS["dl"]:
        _, sender, _ = run_dumbbell("dl", sender_class, until_s=1.7)
        readings.append((sender.packets_suppressed, sender.rng.getstate()))
    assert readings[0] == readings[1]
    assert readings[0][0] > 1000


def test_idle_sender_costs_no_tick_events():
    """No receivers: one event per group to park it, then slot boundaries only."""
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=250_000.0))
    sender_host = net.add_sender()
    net.build_routes()
    spec = SessionSpec("s").with_addresses(net.allocate_groups(10))
    sender = FlidDlSender(net, sender_host, spec)
    sender.start()
    net.run(until=10.0)
    slot_boundaries = int(10.0 / spec.slot_duration_s) + 1
    bootstrap = 2  # the bootstrap event and the slot clock's on-boundary kick
    assert net.sim.events_executed <= slot_boundaries + spec.group_count + bootstrap
    assert len(sender._parked) == spec.group_count
    # Every idle tick is still accounted for: 10 s of all ten layers' clocks.
    expected = sum(10.0 / spec.packet_interval_s(g) for g in range(1, 11))
    assert sender.packets_suppressed == pytest.approx(expected, rel=0.02)
    assert sender.packets_sent == 0


def test_unsuppressed_sender_never_parks():
    """``suppress_unsubscribed_groups=False``: every tick sends, no hook."""
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=250_000.0))
    sender_host = net.add_sender()
    net.build_routes()
    spec = SessionSpec("s").with_addresses(net.allocate_groups(10))
    sender = FlidDlSender(net, sender_host, spec, suppress_unsubscribed_groups=False)
    sender.start()
    net.run(until=2.0)
    assert not sender._parked
    assert not net.multicast._first_member_hooks
    assert sender.packets_suppressed == 0
    assert sender.packets_sent > 1500


@pytest.mark.parametrize("protected", [False, True])
def test_figure8_senders_match_per_tick_reference(protected, monkeypatch):
    """Whole scenario: same result bytes, same per-sender counters and RNG."""
    spec = scenario_spec("figure8-throughput", protected=protected, duration_s=12.0)

    def run():
        scenario = run_scenario(spec)
        document = RunResult.for_spec(spec, collect_metrics(scenario, spec)).to_json()
        states = [
            (s.sender.packets_sent, s.sender.packets_suppressed, s.sender.rng.getstate())
            for s in scenario.sessions
        ]
        return document, states

    parked = run()
    monkeypatch.setattr(scenario_module, "FlidDlSender", PerTickDlSender)
    monkeypatch.setattr(scenario_module, "FlidDsSender", PerTickDsSender)
    assert run() == parked
    assert all(suppressed > sent for sent, suppressed, _ in parked[1])
