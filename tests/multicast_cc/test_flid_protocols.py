"""Behavioural tests of FLID-DL and FLID-DS.

These are short simulator runs (seconds of simulated time) asserting on the
protocol mechanics: admission, level adaptation, key submission and the
division of labour between receivers and the SIGMA edge router.
"""

import pytest

from repro.core.sigma import SigmaRouterAgent
from repro.core.timeslot import SlotClock
from repro.multicast_cc import (
    FlidDlReceiver,
    FlidDlSender,
    FlidDsReceiver,
    FlidDsSender,
    SessionSpec,
)
from repro.simulator import NetworkGraph, dumbbell_topology, install_igmp


def build_dl(bandwidth_bps=250_000.0, groups=10, seed=0):
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=bandwidth_bps), seed=seed)
    install_igmp(net.edge_router, net.multicast)
    sender_host = net.add_sender()
    receiver_host = net.add_receiver()
    net.build_routes()
    spec = SessionSpec("s", group_count=groups).with_addresses(net.allocate_groups(groups))
    sender = FlidDlSender(net, sender_host, spec)
    receiver = FlidDlReceiver(net, receiver_host, spec)
    return net, spec, sender, receiver


def build_ds(bandwidth_bps=250_000.0, groups=10, seed=0, receivers=1):
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=bandwidth_bps), seed=seed)
    spec = SessionSpec("s", group_count=groups, slot_duration_s=0.25).with_addresses(
        net.allocate_groups(groups)
    )
    clock = SlotClock(net.sim, 0.25)
    agent = SigmaRouterAgent(net.edge_router, net.multicast, clock)
    clock.start()
    sender_host = net.add_sender()
    receiver_hosts = [net.add_receiver() for _ in range(receivers)]
    net.build_routes()
    sender = FlidDsSender(net, sender_host, spec)
    rxs = [FlidDsReceiver(net, host, spec) for host in receiver_hosts]
    return net, spec, sender, rxs, agent


class TestFlidDl:
    def test_receiver_joins_minimal_group_first(self):
        net, spec, sender, receiver = build_dl()
        sender.start()
        receiver.start()
        net.run(until=0.5)
        assert receiver.level >= 1
        assert net.multicast.is_member(receiver.host, spec.minimal_group())

    def test_receiver_climbs_toward_fair_level(self):
        net, spec, sender, receiver = build_dl(bandwidth_bps=250_000.0)
        sender.start()
        receiver.start()
        net.run(until=30.0)
        # Fair level for 250 Kbps is 3; allow the probing band around it.
        assert 2 <= receiver.level <= 4
        assert receiver.average_rate_kbps(5, 30) > 120.0

    def test_receiver_does_not_exceed_capacity_for_long(self):
        net, spec, sender, receiver = build_dl(bandwidth_bps=150_000.0)
        sender.start()
        receiver.start()
        net.run(until=30.0)
        assert receiver.average_rate_kbps(5, 30) < 170.0

    def test_loss_causes_decreases(self):
        net, spec, sender, receiver = build_dl(bandwidth_bps=150_000.0)
        sender.start()
        receiver.start()
        net.run(until=30.0)
        assert receiver.decreases > 0
        assert receiver.congested_slots > 0

    def test_sender_suppresses_unsubscribed_groups(self):
        net, spec, sender, receiver = build_dl()
        sender.start()
        receiver.start()
        net.run(until=10.0)
        assert sender.packets_suppressed > 0

    def test_level_history_is_recorded(self):
        net, spec, sender, receiver = build_dl()
        sender.start()
        receiver.start()
        net.run(until=10.0)
        assert receiver.level_history
        times = [t for t, _ in receiver.level_history]
        assert times == sorted(times)

    def test_unbound_spec_rejected(self):
        net, spec, sender, receiver = build_dl()
        with pytest.raises(ValueError):
            FlidDlSender(net, sender.host, SessionSpec("unbound"))


class TestFlidDs:
    def test_receiver_obtains_access_through_keys(self):
        net, spec, sender, (receiver,), agent = build_ds()
        sender.start()
        receiver.start()
        net.run(until=10.0)
        assert agent.valid_submissions > 0
        assert receiver.average_rate_kbps(2, 10) > 80.0

    def test_access_persists_beyond_session_join_grace(self):
        net, spec, sender, (receiver,), agent = build_ds()
        sender.start()
        receiver.start()
        net.run(until=20.0)
        # Long after the two-slot grace, the receiver still gets the minimal
        # group; that is only possible through valid key submissions.
        assert net.multicast.is_member(receiver.host, spec.minimal_group())
        assert receiver.average_rate_kbps(15, 20) > 80.0

    def test_throughput_comparable_to_flid_dl(self):
        net, spec, sender, (ds_rx,), agent = build_ds(seed=1)
        sender.start()
        ds_rx.start()
        net.run(until=40.0)
        dl_net, dl_spec, dl_tx, dl_rx = build_dl(seed=1)
        dl_tx.start()
        dl_rx.start()
        dl_net.run(until=40.0)
        ds_rate = ds_rx.average_rate_kbps(5, 40)
        dl_rate = dl_rx.average_rate_kbps(5, 40)
        assert ds_rate > 0.6 * dl_rate, f"FLID-DS {ds_rate} vs FLID-DL {dl_rate}"

    def test_edge_router_sees_announcements(self):
        net, spec, sender, (receiver,), agent = build_ds()
        sender.start()
        receiver.start()
        net.run(until=5.0)
        assert agent.announcements_decoded > 0
        assert agent.key_table.entries_stored > 0

    def test_data_packets_carry_delta_fields(self):
        from repro.multicast_cc import headers as h

        net, spec, sender, (receiver,), agent = build_ds()
        captured = []

        class Spy:
            # Agents must not retain delivered packets (the host recycles
            # pooled replicas after dispatch); snapshot the headers instead.
            def handle_packet(self, packet):
                captured.append(dict(packet.headers))

        receiver.host.register_group_agent(spec.minimal_group(), Spy())
        sender.start()
        receiver.start()
        net.run(until=3.0)
        assert captured
        assert all(h.COMPONENT in hdrs for hdrs in captured)

    def test_two_receivers_both_served(self):
        net, spec, sender, receivers, agent = build_ds(receivers=2)
        sender.start()
        for rx in receivers:
            rx.start()
        net.run(until=20.0)
        rates = [rx.average_rate_kbps(5, 20) for rx in receivers]
        assert all(rate > 60.0 for rate in rates), rates

    def test_levels_of_co_bottleneck_receivers_stay_close(self):
        net, spec, sender, receivers, agent = build_ds(receivers=2)
        sender.start()
        for rx in receivers:
            rx.start()
        net.run(until=30.0)
        assert abs(receivers[0].level - receivers[1].level) <= 1


def test_one_receiver_class_per_protocol():
    """The receiver lattice stays collapsed: two classes.

    Placement (N hosts / one host per cohort / one host per edge router),
    population, attack strategies and churn are constructor arguments of the
    two protocol receivers — never a reason for another subclass.
    """
    import importlib
    import pkgutil

    import repro
    from repro.multicast_cc import LayeredReceiverBase

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)

    def descendants(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from descendants(sub)

    assert set(descendants(LayeredReceiverBase)) == {FlidDlReceiver, FlidDsReceiver}
