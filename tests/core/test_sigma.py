"""Tests of SIGMA: messages, key table, router agent, distributor and time slots."""

import pytest

from repro.core.delta.base import GroupKeys, SlotKeyMaterial
from repro.core.sigma import (
    KeyAnnouncement,
    KeyAnnouncementEntry,
    RouterKeyTable,
    SessionJoinMessage,
    SigmaConfig,
    SigmaHostInterface,
    SigmaKeyDistributor,
    SigmaRouterAgent,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from repro.core.timeslot import KEY_PIPELINE_DEPTH, SlotClock
from repro.simulator import Network, Simulator
from repro.simulator.address import MULTICAST_BASE, GroupAddress


def group(n):
    return GroupAddress(MULTICAST_BASE + n)


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

    def test_stop_prevents_callbacks(self):
        sim = Simulator()
        clock = SlotClock(sim, 0.5)
        fired = []
        clock.on_slot_start(fired.append)
        clock.start()
        sim.schedule(1.1, clock.stop)
        sim.run(until=3.0)
        assert fired == [1, 2]


class TestMessages:
    def test_announcement_roundtrip_through_ints(self):
        entries = [
            KeyAnnouncementEntry(group(1), GroupKeys(top=10, decrease=11, increase=None)),
            KeyAnnouncementEntry(group(2), GroupKeys(top=20, decrease=None, increase=22)),
        ]
        announcement = KeyAnnouncement("s", governed_slot=7, entries=entries)
        restored = KeyAnnouncement.from_ints("s", announcement.to_ints())
        assert restored.governed_slot == 7
        assert restored.entries[0].keys.top == 10
        assert restored.entries[0].keys.increase is None
        assert restored.entries[1].keys.increase == 22
        assert int(restored.entries[1].group) == int(group(2))

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
            KeyAnnouncement.from_ints("s", [5, 2, 1, 2, 3])

    def test_payload_bits_counts_present_keys(self):
        entries = [
            KeyAnnouncementEntry(group(1), GroupKeys(top=10, decrease=11)),
            KeyAnnouncementEntry(group(2), GroupKeys(top=20)),
        ]
        announcement = KeyAnnouncement("s", 0, entries)
        # 8-bit slot + 2*32-bit addresses + 3 keys of 16 bits.
        assert announcement.payload_bits(16, 8) == 8 + 64 + 48

    def test_message_sizes(self):
        assert SessionJoinMessage("s", group(1)).size_bytes() > 0
        sub = SubscriptionMessage("s", 3, ((group(1), 7),))
        assert sub.size_bytes() > 0
        assert sub.groups() == [group(1)]
        assert UnsubscriptionMessage("s", (group(1), group(2))).size_bytes() > 0


class TestRouterKeyTable:
    def test_accepts_any_stored_key(self):
        table = RouterKeyTable()
        table.store(4, group(1), GroupKeys(top=100, decrease=200, increase=300))
        assert table.accepts(4, group(1), 100)
        assert table.accepts(4, group(1), 200)
        assert table.accepts(4, group(1), 300)

    def test_rejects_wrong_key_slot_or_group(self):
        table = RouterKeyTable()
        table.store(4, group(1), GroupKeys(top=100))
        assert not table.accepts(4, group(1), 101)
        assert not table.accepts(5, group(1), 100)
        assert not table.accepts(4, group(2), 100)

    def test_prune_drops_old_slots(self):
        table = RouterKeyTable(retained_slots=2)
        table.store(1, group(1), GroupKeys(top=1))
        table.store(5, group(1), GroupKeys(top=5))
        table.prune_for_current_slot(6)
        assert not table.accepts(1, group(1), 1)
        assert table.accepts(5, group(1), 5)

    def test_empty_keys_not_stored(self):
        table = RouterKeyTable()
        table.store(1, group(1), GroupKeys())
        assert len(table) == 0

    def test_keys_for_and_has_keys(self):
        table = RouterKeyTable()
        table.store_key_values(2, group(3), [7, 8])
        assert table.has_keys_for(2, group(3))
        assert table.keys_for(2, group(3)) == {7, 8}
        assert not table.has_keys_for(3, group(3))

    def test_retained_slots_validation(self):
        with pytest.raises(ValueError):
            RouterKeyTable(retained_slots=1)


def build_sigma_network(slot_s=0.25, config=None):
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
    agent = SigmaRouterAgent(edge, net.multicast, clock, config=config)
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
        agent.key_table.store_key_values(3, group(1), [42])
        sigma = SigmaHostInterface(receiver, "s")
        sigma.session_join(group(1))
        sigma.subscribe(3, [(group(1), 42)])
        net.run(until=0.80)  # inside slot 3 (0.75 - 1.0)
        assert agent.is_forwarding(receiver, group(1))
        assert agent.valid_submissions == 1

    def test_invalid_key_is_rejected_and_counted(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        agent.key_table.store_key_values(3, group(2), [42])
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(3, [(group(2), 41)])
        net.run(until=1.1)
        assert not agent.is_forwarding(receiver, group(2))
        assert agent.invalid_submissions == 1

    def test_guess_alarm_raised_after_threshold(self):
        config = SigmaConfig(guess_alarm_threshold=3)
        net, sender, receiver, edge, agent, clock = build_sigma_network(config=config)
        agent.key_table.store_key_values(3, group(1), [999])
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(3, [(group(1), k) for k in (1, 2, 3, 4)])
        net.run(until=0.2)
        assert agent.guess_alarms == 1

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

    def test_revocation_at_slot_boundary_without_renewal(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        agent.key_table.store_key_values(2, group(1), [7])
        sigma = SigmaHostInterface(receiver, "s")
        sigma.subscribe(2, [(group(1), 7)])
        net.run(until=0.6)  # slot 2 in progress, access granted
        assert agent.is_forwarding(receiver, group(1))
        # No key submitted for slot 4 and beyond: after the grace slot the
        # router must stop forwarding.
        net.run(until=1.3)
        assert not agent.is_forwarding(receiver, group(1))

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
        distributor = SigmaKeyDistributor(
            sender, "s", [group(1), group(2), group(3)], use_fec=True
        )
        distributor.announce(self._material())
        net.run(until=0.3)
        assert agent.announcements_decoded == 1
        assert agent.key_table.accepts(4, group(2), 20)

    def test_plain_announcement_without_fec(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        SigmaHostInterface(receiver, "s").session_join(group(1))
        net.run(until=0.05)
        distributor = SigmaKeyDistributor(
            sender, "s", [group(1), group(2), group(3)], use_fec=False
        )
        packets = distributor.announce(self._material())
        assert len(packets) == 1
        net.run(until=0.3)
        assert agent.key_table.accepts(4, group(1), 10)

    def test_special_packets_not_delivered_to_hosts(self):
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        delivered = []

        class Spy:
            def handle_packet(self, packet):
                delivered.append(packet)

        receiver.register_group_agent(group(1), Spy())
        SigmaHostInterface(receiver, "s").session_join(group(1))
        net.run(until=0.05)
        SigmaKeyDistributor(sender, "s", [group(1)], use_fec=False).announce(
            self._material(groups=1)
        )
        net.run(until=0.3)
        assert not delivered

    def test_fec_decoding_survives_packet_loss(self):
        """Drop every other special packet; the announcement must still decode."""
        net, sender, receiver, edge, agent, clock = build_sigma_network()
        SigmaHostInterface(receiver, "s").session_join(group(1))
        net.run(until=0.05)
        distributor = SigmaKeyDistributor(
            sender, "s", [group(g) for g in range(1, 11)], symbols_per_packet=4
        )
        material = self._material(groups=10)
        packets = distributor._fec_packets(  # build without sending
            KeyAnnouncement.from_material("s", material, distributor.group_addresses)
        )
        for index, packet in enumerate(packets):
            if index % 2 == 0:  # deliver only half of them
                agent.handle_control_packet(packet)
        assert agent.announcements_decoded == 1
        assert agent.key_table.accepts(4, group(10), 100)

    def test_coded_and_plain_forms_fill_the_table_alike(self):
        """One absorb routine: FEC symbols (systematic or parity) and the plain object agree."""
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
        for form in ("systematic", "parity", "plain"):
            net, sender, receiver, edge, agent, clock = build_sigma_network()
            distributor = SigmaKeyDistributor(sender, "s", groups, symbols_per_packet=6)
            if form == "plain":
                packets = [distributor._plain_packet(announcement)]
            else:
                packets = distributor._fec_packets(announcement)
                if form == "parity":  # symbols 43..84 of 84: every source symbol interpolated
                    packets = packets[len(packets) // 2 :]
            for packet in packets:
                agent.handle_control_packet(packet)
            agents.append(agent)
        for agent in agents:
            assert agent.announcements_decoded == 1
            assert agent.key_table.entries_stored == 9
            assert len(agent.key_table) == 9
            for g in range(1, 11):
                assert agent.key_table.keys_for(6, group(g)) == set(keys[g].valid_keys())

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
        assert len(agent.key_table) == 0
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
