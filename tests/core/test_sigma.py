"""Tests of SIGMA: messages, key table, router agent, distributor and time slots."""

import pytest

from repro.core.delta.base import GroupKeys, SlotKeyMaterial
from repro.core.sigma import (
    ANNOUNCEMENT_HEADER,
    KeyAnnouncement,
    KeyAnnouncementEntry,
    GUESS_ALARM_THRESHOLD,
    RETAINED_SLOTS,
    RouterKeyTable,
    SessionJoinMessage,
    SigmaHostInterface,
    SigmaKeyDistributor,
    SigmaRouterAgent,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from repro.core.sigma.messages import ABSENT_KEY
from repro.core.timeslot import KEY_PIPELINE_DEPTH, SlotClock
from repro.fec import FecConfig
from repro.simulator import IgmpHostInterface, Network, Simulator, install_igmp
from repro.simulator.address import MULTICAST_BASE, GroupAddress


def group(n):
    return GroupAddress(MULTICAST_BASE + n)


def seed_keys(table, slot, address, *keys):
    """Store ``keys`` (top, decrease, increase) for one group, as an announcement does."""
    entry = KeyAnnouncementEntry(address, GroupKeys(*keys))
    table.store_announcement(KeyAnnouncement("s", slot, [entry]).to_ints())


class TestSlotClock:
    def test_slot_arithmetic(self):
        clock = SlotClock(Simulator(), 0.25)
        assert clock.slot_of(0.0) == 0
        assert clock.slot_of(0.26) == 1
        assert clock.start_of(4) == pytest.approx(1.0)
        assert clock.end_of(4) == pytest.approx(1.25)

    def test_governed_slot_pipeline(self):
        clock = SlotClock(Simulator(), 0.5)
        assert clock.governed_slot(3) == 3 + KEY_PIPELINE_DEPTH
        assert clock.distribution_slot(5) == 5 - KEY_PIPELINE_DEPTH

    def test_callbacks_fire_each_slot(self):
        sim = Simulator()
        clock = SlotClock(sim, 0.5)
        fired = []
        clock.on_slot_start(fired.append)
        clock.start()
        sim.run(until=2.1)
        assert fired == [1, 2, 3, 4]

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            SlotClock(Simulator(), 0.0)



class TestMessages:
    def test_announcement_roundtrip_through_ints(self):
        entries = [
            KeyAnnouncementEntry(group(1), GroupKeys(top=10, decrease=11, increase=None)),
            KeyAnnouncementEntry(group(2), GroupKeys(top=20, decrease=None, increase=22)),
        ]
        announcement = KeyAnnouncement("s", governed_slot=7, entries=entries)
        values = announcement.to_ints()
        assert KeyAnnouncement.frame(values) == (7, 2)
        table = RouterKeyTable()
        table.store_announcement(values)
        assert table.entries_stored == 2
        assert table.accepts(7, group(1), 10) and table.accepts(7, group(1), 11)
        assert table.accepts(7, group(2), 20) and table.accepts(7, group(2), 22)
        assert not table.accepts(7, group(1), ABSENT_KEY)  # the absent increase key
        assert not table.accepts(7, group(2), 11)
        assert not table.accepts(8, group(1), 10)

    def test_announcement_from_material(self):
        material = SlotKeyMaterial(
            governed_slot=5,
            keys={1: GroupKeys(top=1), 2: GroupKeys(top=2, decrease=3)},
        )
        announcement = KeyAnnouncement.from_material("s", material, [group(1), group(2)])
        assert announcement.governed_slot == 5
        assert len(announcement.entries) == 2

    def test_announcement_needs_enough_addresses(self):
        material = SlotKeyMaterial(governed_slot=5, keys={1: GroupKeys(top=1), 2: GroupKeys(top=2)})
        with pytest.raises(ValueError):
            KeyAnnouncement.from_material("s", material, [group(1)])

    def test_truncated_serialisation_rejected(self):
        with pytest.raises(ValueError):
            KeyAnnouncement.frame([5, 2, 1, 2, 3])

    def test_message_sizes(self):
        assert SessionJoinMessage("s", group(1)).size_bytes() > 0
        sub = SubscriptionMessage("s", 3, ((group(1), 7),))
        assert sub.size_bytes() > 0
        assert sub.groups() == [group(1)]
        assert UnsubscriptionMessage("s", (group(1), group(2))).size_bytes() > 0

    def test_unsubscription_size_counts_its_addresses(self):
        assert UnsubscriptionMessage("s", ()).size_bytes() == 8
        three = UnsubscriptionMessage("s", (group(1), group(2), group(3)))
        assert three.size_bytes() == 8 + 3 * 4


class TestRouterKeyTable:
    def test_accepts_any_stored_key(self):
        table = RouterKeyTable()
        seed_keys(table, 4, group(1), 100, 200, 300)
        assert table.accepts(4, group(1), 100)
        assert table.accepts(4, group(1), 200)
        assert table.accepts(4, group(1), 300)

    def test_rejects_wrong_key_slot_or_group(self):
        table = RouterKeyTable()
        seed_keys(table, 4, group(1), 100)
        assert not table.accepts(4, group(1), 101)
        assert not table.accepts(5, group(1), 100)
        assert not table.accepts(4, group(2), 100)

    def test_prune_drops_old_slots(self):
        table = RouterKeyTable()
        oldest_kept = 10 - RETAINED_SLOTS + 1
        seed_keys(table, oldest_kept - 1, group(1), 1)
        seed_keys(table, oldest_kept, group(1), 2)
        seed_keys(table, 12, group(1), 3)
        assert table.prune_for_current_slot(10) == 1
        assert not table.accepts(oldest_kept - 1, group(1), 1)
        assert table.accepts(oldest_kept, group(1), 2)
        assert table.accepts(12, group(1), 3)

    def test_empty_keys_not_stored(self):
        table = RouterKeyTable()
        seed_keys(table, 1, group(1))
        assert table.entries_stored == 0
        assert not table.accepts(1, group(1), ABSENT_KEY)


def build_sigma_network(slot_s=0.25):
    """host -- edge router with a SIGMA agent; sender host on the other side."""
    net = Network()
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    core = net.add_router("core")
    edge = net.add_router("edge")
    net.attach_host(sender, core, 10e6, 0.001)
    net.duplex_link(core, edge, 10e6, 0.005)
    net.attach_host(receiver, edge, 10e6, 0.001)
    net.build_routes()
    clock = SlotClock(net.sim, slot_s)
    agent = SigmaRouterAgent(edge, net.multicast, clock)
    clock.start()
    return net, sender, receiver, edge, agent, clock


class TestSigmaRouterAgent:
    def test_session_join_grants_minimal_group_grace(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.session_join(group(1))
        net.run(until=0.1)
        assert agent.is_forwarding(receiver, group(1))
        assert net.multicast.is_member(receiver, group(1))

    def test_grace_expires_without_valid_key(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.session_join(group(1))
        net.run(until=2.0)  # well past the two-slot grace at 250 ms slots
        assert not agent.is_forwarding(receiver, group(1))
        assert agent.revocations >= 1

    def test_valid_key_extends_access(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        seed_keys(agent.key_table, 3, group(1), 42)
        sigma = SigmaHostInterface(receiver, "s")
        sigma.session_join(group(1))
        sigma.subscribe(3, [(group(1), 42)])
        net.run(until=0.80)  # inside slot 3 (0.75 - 1.0)
        assert agent.is_forwarding(receiver, group(1))
        assert agent.valid_submissions == 1

    def test_invalid_key_is_rejected_and_counted(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        seed_keys(agent.key_table, 3, group(2), 42)
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(3, [(group(2), 41)])
        net.run(until=1.1)
        assert not agent.is_forwarding(receiver, group(2))
        assert agent.invalid_submissions == 1

    def test_guess_alarm_raised_after_threshold(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        seed_keys(agent.key_table, 3, group(1), 999)
        sigma = SigmaHostInterface(receiver, "s")
        guesses = range(1, GUESS_ALARM_THRESHOLD + 2)
        sigma.subscribe(3, [(group(1), k) for k in guesses])
        net.run(until=0.2)
        assert agent.invalid_submissions == GUESS_ALARM_THRESHOLD + 1
        assert agent.guess_alarms == 1

    def test_guesses_below_the_threshold_raise_no_alarm(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(3, [(group(1), k) for k in range(1, GUESS_ALARM_THRESHOLD)])
        net.run(until=0.2)
        assert agent.guess_alarms == 0

    def test_bare_igmp_join_is_ignored(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        agent.handle_join(receiver, group(5))
        net.run(until=0.1)
        assert not net.multicast.is_member(receiver, group(5))
        assert agent.igmp_joins_ignored == 1

    def test_unsubscription_stops_forwarding_immediately(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.session_join(group(1))
        net.run(until=0.1)
        sigma.unsubscribe([group(1)])
        net.run(until=0.2)
        assert not agent.is_forwarding(receiver, group(1))

    def test_unsubscription_leaves_the_other_groups_forwarded(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        seed_keys(agent.key_table, 3, group(1), 41)
        seed_keys(agent.key_table, 3, group(2), 42)
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(3, [(group(1), 41), (group(2), 42)])
        net.run(until=0.80)  # inside slot 3 (0.75 - 1.0)
        assert agent.is_forwarding(receiver, group(2))
        sigma.unsubscribe([group(2)])
        net.run(until=0.85)
        assert agent.is_forwarding(receiver, group(1))
        assert not agent.is_forwarding(receiver, group(2))
        assert not net.multicast.is_member(receiver, group(2))
        assert (sigma.unsubscriptions_sent, agent.unsubscriptions) == (1, 1)

    def test_unsubscription_from_an_unforwarded_group_is_counted_only(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.unsubscribe([group(3)])
        net.run(until=0.1)
        assert agent.unsubscriptions == 1
        assert agent.forwarded_groups(receiver) == []
        assert agent.revocations == 0

    def test_empty_unsubscription_sends_nothing(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.unsubscribe([])
        net.run(until=0.1)
        assert (sigma.unsubscriptions_sent, agent.unsubscriptions) == (0, 0)

    def test_revocation_at_slot_boundary_without_renewal(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        seed_keys(agent.key_table, 2, group(1), 7)
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(2, [(group(1), 7)])
        net.run(until=0.6)  # slot 2 in progress, access granted
        assert agent.is_forwarding(receiver, group(1))
        # No key submitted for slot 4 and beyond: after the grace slot the
        # router must stop forwarding.
        net.run(until=1.3)
        assert not agent.is_forwarding(receiver, group(1))

    def test_access_records_keep_only_grants_for_slots_ahead(self):
        """A grant is read once, at its slot's start; after that it is dropped."""
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        for slot in range(1, 11):
            seed_keys(agent.key_table, slot, group(1), 100 + slot)
            sigma.subscribe(slot, [(group(1), 100 + slot)])
        net.run(until=0.1)
        record = agent._access[(receiver.name, int(group(1)))]
        assert record.granted_slots == set(range(1, 11))
        net.run(until=1.6)  # inside slot 6
        assert clock.current_slot == 6
        assert record.granted_slots == {7, 8, 9, 10}
        assert agent.is_forwarding(receiver, group(1))
        assert agent.valid_submissions == 10

    def test_forwarded_groups_listing(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        sigma = SigmaHostInterface(receiver, "s")
        sigma.session_join(group(1))
        net.run(until=0.1)
        assert [int(g) for g in agent.forwarded_groups(receiver)] == [int(group(1))]


class TestKeyDistribution:
    def _material(self, groups=3, slot=4):
        keys = {g: GroupKeys(top=g * 10, decrease=g * 10 + 1) for g in range(1, groups + 1)}
        return SlotKeyMaterial(governed_slot=slot, keys=keys)

    def test_announcement_reaches_edge_router(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        # The edge router only receives group-1 traffic if someone downstream
        # subscribed; bootstrap via session join.
        SigmaHostInterface(receiver, "s").session_join(group(1))
        net.run(until=0.05)
        distributor = SigmaKeyDistributor(sender, "s", [group(1), group(2), group(3)])
        distributor.announce(self._material())
        net.run(until=0.3)
        assert agent.announcements_decoded == 1
        assert agent.key_table.accepts(4, group(2), 20)

    def test_announcements_travel_only_as_coded_symbols(self):
        """Sender and router build the same default code; every special
        packet carries a slice of the z = 2 coded symbols, nothing else."""
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        distributor = SigmaKeyDistributor(sender, "s", [group(g) for g in range(1, 4)])
        assert distributor._erasure.config == agent._erasure.config == FecConfig()
        packets = distributor.announce(self._material())
        payloads = [packet.headers[ANNOUNCEMENT_HEADER] for packet in packets]
        fields = {"session_id", "governed_slot", "source_count", "symbols"}
        assert all(set(payload) == fields for payload in payloads)
        source_count = payloads[0]["source_count"]
        assert source_count == 2 + 3 * 4
        assert sum(len(p["symbols"]) for p in payloads) == 2 * source_count

    def test_special_packets_not_delivered_to_hosts(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        delivered = []

        class Spy:
            def handle_packet(self, packet):
                delivered.append(packet)

        receiver.register_group_agent(group(1), Spy())
        SigmaHostInterface(receiver, "s").session_join(group(1))
        net.run(until=0.05)
        packets = SigmaKeyDistributor(sender, "s", [group(1)]).announce(
            self._material(groups=1)
        )
        net.run(until=0.3)
        assert packets and agent.announcements_decoded == 1
        assert not delivered

    def test_igmp_edge_ignores_special_packets(self):
        """An unprotected edge forwards the session but absorbs no keys and
        hands no special packet to its hosts (mixed IGMP/SIGMA deployments)."""
        net = Network()
        sender = net.add_host("sender")
        receiver = net.add_host("receiver")
        core = net.add_router("core")
        edge = net.add_router("edge")
        net.attach_host(sender, core, 10e6, 0.001)
        net.duplex_link(core, edge, 10e6, 0.005)
        net.attach_host(receiver, edge, 10e6, 0.001)
        net.build_routes()
        manager = install_igmp(edge, net.multicast)
        delivered = []

        class Spy:
            def handle_packet(self, packet):
                delivered.append(packet)

        receiver.register_group_agent(group(1), Spy())
        IgmpHostInterface(receiver).join(group(1))
        net.run(until=0.05)
        packets = SigmaKeyDistributor(sender, "s", [group(1), group(2)]).announce(
            self._material(groups=2)
        )
        net.run(until=0.3)
        assert edge.multicast_packets_forwarded == len(packets) > 0
        assert not delivered
        assert (manager.joins_handled, manager.leaves_handled) == (1, 0)
        assert manager.memberships == {"receiver": {int(group(1))}}

    def test_fec_decoding_survives_packet_loss(self):
        """Drop every other special packet; the announcement must still decode."""
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        SigmaHostInterface(receiver, "s").session_join(group(1))
        net.run(until=0.05)
        distributor = SigmaKeyDistributor(sender, "s", [group(g) for g in range(1, 11)])
        material = self._material(groups=10)
        packets = distributor._fec_packets(  # build without sending
            KeyAnnouncement.from_material("s", material, distributor.group_addresses)
        )
        assert len(packets) == 6  # 84 coded symbols, SYMBOLS_PER_PACKET at a time
        for index, packet in enumerate(packets):
            if index % 2 == 0:  # deliver only half of them
                agent.handle_control_packet(packet)
        assert agent.announcements_decoded == 1
        assert agent.key_table.accepts(4, group(10), 100)

    def test_systematic_and_parity_symbols_fill_the_table_alike(self):
        """Either half of the FEC symbols decodes to the same key table."""
        keys = {
            g: GroupKeys(
                top=g * 10,
                decrease=g * 10 + 1 if g > 1 else None,
                increase=g * 10 + 2 if g % 3 == 0 else None,
            )
            for g in range(1, 11)
        }
        keys[4] = GroupKeys()  # no valid key: skipped, not counted
        groups = [group(g) for g in range(1, 11)]
        announcement = KeyAnnouncement.from_material(
            "s", SlotKeyMaterial(governed_slot=6, keys=keys), groups
        )
        agents = []
        for form in ("systematic", "parity"):
            net, sender, receiver, edge, agent, clock = build_sigma_network()
            distributor = SigmaKeyDistributor(sender, "s", groups)
            for packet in distributor._fec_packets(announcement):
                # Symbols 1..42 of 84 are the source; 43..84 are parity, from
                # which every source symbol is interpolated.
                payload = packet.headers[ANNOUNCEMENT_HEADER]
                source = payload["source_count"]
                payload["symbols"] = [
                    (index, value)
                    for index, value in payload["symbols"]
                    if (index > source) == (form == "parity")
                ]
                agent.handle_control_packet(packet)
            agents.append(agent)
        for agent in agents:
            assert agent.announcements_decoded == 1
            assert agent.key_table.entries_stored == 9
            for g in range(1, 11):
                for key in keys[g].valid_keys():
                    assert agent.key_table.accepts(6, group(g), key)
                assert not agent.key_table.accepts(6, group(g), g * 10 + 3)

    def test_truncated_serialisation_stores_nothing(self):
        class Truncated(KeyAnnouncement):
            def to_ints(self):
                return super().to_ints()[:-1]

        net, sender, receiver, edge, agent, clock = build_sigma_network()
        distributor = SigmaKeyDistributor(sender, "s", [group(1), group(2)])
        whole = KeyAnnouncement.from_material(
            "s", self._material(groups=2), distributor.group_addresses
        )
        cut = Truncated("s", whole.governed_slot, whole.entries)
        with pytest.raises(ValueError, match="truncated"):
            for packet in distributor._fec_packets(cut):
                agent.handle_control_packet(packet)
        with pytest.raises(ValueError, match="truncated"):
            agent.key_table.store_announcement(cut.to_ints())
        with pytest.raises(ValueError, match="too short"):
            agent.key_table.store_announcement(whole.to_ints()[:1])
        assert agent.key_table.entries_stored == 0
        assert agent.announcements_decoded == 0

    def test_overhead_recorded(self):
        from repro.simulator.monitors import OverheadAccumulator

        net, sender, receiver, edge, agent, clock = build_sigma_network()
        acc = OverheadAccumulator()
        acc.record_data_packet(8000)
        distributor = SigmaKeyDistributor(sender, "s", [group(1)], overhead=acc)
        distributor.announce(self._material(groups=1))
        assert acc.sigma_bits > 0
        assert distributor.special_packets_sent >= 1


@pytest.mark.parametrize("duration_s", [20.0, 80.0])
def test_agent_state_stays_within_the_key_table_horizon(duration_s):
    """An edge agent drops its per-slot bookkeeping with the key table's keys.

    Guess counts, decoded announcements and symbol buffers are kept only for
    the retained slots and the ones ahead, so they do not grow with the run:
    unpruned, an 80 s ``attack-key-guessing`` run held 3207 entries against
    a 20 s run's 643; pruned, 66 against 62 (per-slot guess counts vary).
    """
    from repro.experiments import scenario_spec
    from repro.experiments.runner import run_scenario

    spec = scenario_spec("attack-key-guessing", attack_start_s=6.0, duration_s=duration_s)
    (agent,) = run_scenario(spec).sigma_agents
    slots = [key[2] for key in agent._guess_counts]
    slots += [key[1] for key in (*agent._decoded_announcements, *agent._symbol_buffers)]
    assert agent.guess_alarms > 0 and slots
    assert min(slots) >= agent.slot_clock.current_slot - RETAINED_SLOTS + 1
