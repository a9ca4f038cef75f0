"""Tests of the misbehaving receivers and of the protection against them.

These tests are the unit-level counterpart of Figures 1 and 7: the attack
must succeed against IGMP-managed FLID-DL and fail against SIGMA-managed
FLID-DS.  Attackers are the ordinary receivers with a strategy stack passed
as ``strategies=`` — the same stacks the scenario interpreter assembles for
a ``misbehaving=`` declaration.
"""

from repro.adversary import AttackSpec, StrategyStack, build_strategies
from repro.core.sigma import SigmaRouterAgent
from repro.core.timeslot import SlotClock
from repro.multicast_cc import (
    FlidDlReceiver,
    FlidDlSender,
    FlidDsReceiver,
    FlidDsSender,
    SessionSpec,
)
from repro.simulator import DumbbellConfig, DumbbellNetwork, install_igmp


def mount(net, spec, host, attacks):
    """The strategy stack realising ``attacks`` on ``host``."""
    return StrategyStack(build_strategies(attacks, net, spec, host.name))


def build_dl_with_attacker(attack_start=5.0, bottleneck_bps=500_000.0):
    """Two FLID-DL sessions share the bottleneck; session 1's receiver attacks."""
    config = DumbbellConfig.for_fair_share(2, bottleneck_bps / 2)
    net = DumbbellNetwork(config)
    install_igmp(net.right, net.multicast)
    sessions = []
    for index in (1, 2):
        spec = SessionSpec(f"s{index}").with_addresses(net.allocate_groups(10))
        tx = FlidDlSender(net, net.add_sender(), spec)
        sessions.append((spec, tx))
    attacker_host = net.add_receiver()
    victim_host = net.add_receiver()
    net.build_routes()
    spec = sessions[0][0]
    # Figure 1's F1: join every group at the attack time and freeze there.
    attacker = FlidDlReceiver(
        net,
        attacker_host,
        spec,
        strategies=mount(
            net, spec, attacker_host, [AttackSpec("inflated-join", start_s=attack_start)]
        ),
    )
    victim = FlidDlReceiver(net, victim_host, sessions[1][0])
    for _, tx in sessions:
        tx.start()
    attacker.start()
    victim.start()
    return net, attacker, victim


def build_ds_with_attacker(attack_start=5.0, bottleneck_bps=500_000.0):
    config = DumbbellConfig.for_fair_share(2, bottleneck_bps / 2)
    net = DumbbellNetwork(config)
    clock = SlotClock(net.sim, 0.25)
    agent = SigmaRouterAgent(net.right, net.multicast, clock)
    clock.start()
    sessions = []
    for index in (1, 2):
        spec = SessionSpec(f"s{index}", slot_duration_s=0.25).with_addresses(
            net.allocate_groups(10)
        )
        tx = FlidDsSender(net, net.add_sender(), spec)
        sessions.append((spec, tx))
    attacker_host = net.add_receiver()
    victim_host = net.add_receiver()
    net.build_routes()
    spec = sessions[0][0]
    # The composite Figure 7 attacker: bare IGMP joins on top of the honest
    # pipeline, replay of the keys it holds, and random key guessing.
    attacker = FlidDsReceiver(
        net,
        attacker_host,
        spec,
        strategies=mount(
            net,
            spec,
            attacker_host,
            [
                AttackSpec(
                    "inflated-join",
                    start_s=attack_start,
                    params={"suppress_honest": False},
                ),
                AttackSpec("key-replay", start_s=attack_start),
                AttackSpec("key-guessing", start_s=attack_start),
            ],
        ),
    )
    victim = FlidDsReceiver(net, victim_host, sessions[1][0])
    for _, tx in sessions:
        tx.start()
    attacker.start()
    victim.start()
    return net, attacker, victim, agent


class TestAttackOnFlidDl:
    def test_attacker_joins_every_group(self):
        net, attacker, victim = build_dl_with_attacker(attack_start=2.0)
        net.run(until=8.0)
        assert attacker.attacking
        assert len(net.multicast.groups_of(attacker.host)) == attacker.spec.group_count

    def test_attacker_gains_bandwidth_at_victims_expense(self):
        net, attacker, victim = build_dl_with_attacker(attack_start=10.0)
        net.run(until=40.0)
        attacker_before = attacker.average_rate_kbps(3, 10)
        attacker_after = attacker.average_rate_kbps(15, 40)
        victim_after = victim.average_rate_kbps(15, 40)
        assert attacker_after > 1.5 * attacker_before
        assert attacker_after > 2.0 * victim_after

    def test_attacker_ignores_congestion_signals(self):
        net, attacker, victim = build_dl_with_attacker(attack_start=2.0)
        net.run(until=20.0)
        assert attacker.level == attacker.spec.group_count

    def test_well_behaved_until_attack_time(self):
        net, attacker, victim = build_dl_with_attacker(attack_start=15.0)
        net.run(until=10.0)
        assert not attacker.attacking
        assert attacker.level < attacker.spec.group_count


class TestAttackOnFlidDs:
    def test_attacker_cannot_inflate_subscription(self):
        net, attacker, victim, agent = build_ds_with_attacker(attack_start=5.0)
        net.run(until=30.0)
        # The router never forwards more groups than the attacker holds keys for.
        forwarded = len(net.multicast.groups_of(attacker.host))
        fair_level = attacker.spec.fair_level(250_000.0)
        assert forwarded <= fair_level + 1
        assert forwarded < attacker.spec.group_count

    def test_attacker_gains_no_significant_bandwidth(self):
        net, attacker, victim, agent = build_ds_with_attacker(attack_start=10.0)
        net.run(until=40.0)
        before = attacker.average_rate_kbps(3, 10)
        after = attacker.average_rate_kbps(15, 40)
        assert after < 1.5 * max(before, 50.0)

    def test_victim_keeps_its_share(self):
        net, attacker, victim, agent = build_ds_with_attacker(attack_start=10.0)
        net.run(until=40.0)
        victim_before = victim.average_rate_kbps(3, 10)
        victim_after = victim.average_rate_kbps(15, 40)
        assert victim_after > 0.5 * max(victim_before, 60.0)

    def test_guessed_keys_are_rejected(self):
        net, attacker, victim, agent = build_ds_with_attacker(attack_start=3.0)
        net.run(until=15.0)
        assert attacker.adversary_stats()["guess_attempts"] > 0
        assert agent.invalid_submissions > 0

    def test_igmp_joins_are_ignored_by_sigma(self):
        net, attacker, victim, agent = build_ds_with_attacker(attack_start=3.0)
        net.run(until=10.0)
        assert attacker.adversary_stats()["igmp_attempts"] == attacker.spec.group_count
        assert agent.igmp_joins_ignored >= attacker.spec.group_count

    def test_probability_of_guessing_is_negligible(self):
        """§4.2: y guesses against a b-bit key succeed with probability y/2^b."""
        net, attacker, victim, agent = build_ds_with_attacker(attack_start=3.0)
        net.run(until=30.0)
        # With 16-bit keys and a handful of guesses per slot the expected
        # number of successes over this run is << 1; assert none slipped by:
        # every forwarded group must still be within the honest entitlement.
        forwarded = len(net.multicast.groups_of(attacker.host))
        assert forwarded <= attacker.spec.fair_level(250_000.0) + 1


class TestIgnoreCongestionReceiver:
    def test_never_decreases(self):
        config = DumbbellConfig.for_fair_share(1, 150_000.0)
        net = DumbbellNetwork(config)
        install_igmp(net.right, net.multicast)
        spec = SessionSpec("s").with_addresses(net.allocate_groups(10))
        tx = FlidDlSender(net, net.add_sender(), spec)
        rx_host = net.add_receiver()
        net.build_routes()
        # The historical *hold* mode: suppress the decision on congested slots.
        rx = FlidDlReceiver(
            net,
            rx_host,
            spec,
            strategies=mount(
                net, spec, rx_host, [AttackSpec("ignore-congestion", params={"mode": "hold"})]
            ),
        )
        tx.start()
        rx.start()
        net.run(until=20.0)
        assert rx.decreases == 0
        assert rx.congested_slots > 0
