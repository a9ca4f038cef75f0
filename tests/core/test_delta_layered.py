"""Tests of the layered DELTA instantiation (Figure 4).

These tests exercise the eligibility semantics the paper derives in §3.1.1:
who can reconstruct which key under which loss pattern.
"""

import random

import pytest

from repro.core.delta import (
    DeltaPacketFields,
    GroupKeys,
    LayeredDeltaReceiver,
    LayeredDeltaSender,
    ReceiverSlotObservation,
    SlotKeyMaterial,
)
from repro.crypto.nonce import NonceGenerator


def make_sender(groups=5, seed=0):
    return LayeredDeltaSender(groups, NonceGenerator(bits=16, rng=random.Random(seed)))


def emit_slot(sender, packets_per_group, upgrade_authorized=(), slot=0):
    """Run one distribution slot and return (material, fields_by_group)."""
    material = sender.begin_slot(slot, upgrade_authorized)
    fields = {}
    for group, count in enumerate(packets_per_group, start=1):
        fields[group] = [
            sender.fields_for_packet(group, is_last_in_slot=(i == count - 1))
            for i in range(count)
        ]
    return material, fields


def observation_from_fields(fields, level, received, upgrade_authorized=(), lost_groups=None):
    """Build a receiver observation from per-group received packet indices."""
    components = {}
    decreases = {}
    implicit_lost = set()
    for group in range(1, level + 1):
        sent = fields.get(group, [])
        keep = received.get(group, range(len(sent)))
        comps = [sent[i].component for i in keep]
        decs = [sent[i].decrease for i in keep if sent[i].decrease is not None]
        components[group] = comps
        decreases[group] = decs
        if len(comps) < len(sent):
            implicit_lost.add(group)
    lost = frozenset(implicit_lost if lost_groups is None else lost_groups)
    return ReceiverSlotObservation(
        subscription_level=level,
        components=components,
        decrease_fields=decreases,
        lost_groups=lost,
        upgrade_authorized=frozenset(upgrade_authorized),
    )


class TestDeltaArtefacts:
    def test_group_keys_list_only_present_keys(self):
        assert GroupKeys(top=1, increase=3).valid_keys() == [1, 3]
        assert GroupKeys().valid_keys() == []

    def test_any_present_key_opens_the_group(self):
        keys = GroupKeys(top=1, decrease=2, increase=3)
        assert all(keys.accepts(key) for key in (1, 2, 3))
        assert not keys.accepts(4)
        assert not GroupKeys(top=1).accepts(None)

    def test_slot_material_refuses_a_group_it_does_not_guard(self):
        material = SlotKeyMaterial(governed_slot=2, keys={1: GroupKeys(top=7)})
        assert material.group_count == 1
        assert material.accepts(1, 7)
        assert not material.accepts(2, 7)

    def test_field_bits_count_the_decrease_field(self):
        assert DeltaPacketFields(group=1, component=5).field_bits(16) == 16
        assert DeltaPacketFields(group=2, component=5, decrease=9).field_bits(16) == 32

    def test_a_receiver_is_congested_iff_it_lost_in_a_group(self):
        assert not ReceiverSlotObservation(subscription_level=3).congested
        lossy = ReceiverSlotObservation(subscription_level=3, lost_groups=frozenset({2}))
        assert lossy.congested


class TestSenderKeyStructure:
    def test_a_session_needs_a_group(self):
        with pytest.raises(ValueError):
            make_sender(groups=0)
        with pytest.raises(ValueError):
            LayeredDeltaReceiver(0)

    def test_upgrades_outside_groups_two_to_n_are_dropped(self):
        sender = make_sender(groups=5)
        material = sender.begin_slot(0, (0, 1, 3, 6))
        assert material.upgrade_authorized == frozenset({3})
        assert [g for g in range(1, 6) if material.keys[g].increase is not None] == [3]

    def test_top_keys_are_cumulative_xor_of_components(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 3, 5, 2, 6])
        running = 0
        for group in range(1, 6):
            group_xor = 0
            for field in fields[group]:
                group_xor ^= field.component
            running ^= group_xor
            assert material.keys[group].top == running

    def test_decrease_field_carries_lower_group_key(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [3, 3, 3, 3, 3])
        for group in range(2, 6):
            decrease_values = {f.decrease for f in fields[group]}
            assert decrease_values == {material.keys[group - 1].decrease}

    def test_minimal_group_has_no_decrease_field(self):
        sender = make_sender()
        _, fields = emit_slot(sender, [3, 3, 3, 3, 3])
        assert all(f.decrease is None for f in fields[1])

    def test_maximal_group_has_no_decrease_key(self):
        sender = make_sender()
        material, _ = emit_slot(sender, [2, 2, 2, 2, 2])
        assert material.keys[5].decrease is None

    def test_increase_key_only_when_authorized(self):
        sender = make_sender()
        material, _ = emit_slot(sender, [2, 2, 2, 2, 2], upgrade_authorized=(3,))
        assert material.keys[3].increase is not None
        assert material.keys[2].increase is None
        assert material.keys[4].increase is None

    def test_increase_key_equals_lower_top_key(self):
        sender = make_sender()
        material, _ = emit_slot(sender, [2, 2, 2, 2, 2], upgrade_authorized=(4,))
        assert material.keys[4].increase == material.keys[3].top

    def test_group_one_never_gets_increase_key(self):
        sender = make_sender()
        material, _ = emit_slot(sender, [2, 2, 2, 2, 2], upgrade_authorized=(1,))
        assert material.keys[1].increase is None

    def test_governed_slot_is_two_ahead(self):
        sender = make_sender()
        material = sender.begin_slot(7, ())
        assert material.governed_slot == 9

    def test_single_packet_group(self):
        sender = make_sender(groups=2)
        material, fields = emit_slot(sender, [1, 1])
        assert fields[1][0].component == material.keys[1].top

    def test_begin_slot_required_before_fields(self):
        sender = make_sender()
        with pytest.raises(RuntimeError):
            sender.fields_for_packet(1, False)

    def test_unknown_group_rejected(self):
        sender = make_sender(groups=3)
        sender.begin_slot(0, ())
        with pytest.raises(ValueError):
            sender.fields_for_packet(4, False)

    def test_straggler_after_closing_gets_plain_nonce(self):
        sender = make_sender(groups=1)
        material, fields = emit_slot(sender, [2])
        extra = sender.fields_for_packet(1, is_last_in_slot=False)
        assert not extra.closing
        # The closing packet already fixed the XOR sum; the straggler must not
        # change the reconstructible key.
        total = fields[1][0].component ^ fields[1][1].component
        assert total == material.keys[1].top


class TestReceiverEligibility:
    """The three key-distribution conditions of §3.1.1."""

    def test_uncongested_receiver_gets_keys_for_all_its_groups(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        receiver = LayeredDeltaReceiver(5)
        obs = observation_from_fields(fields, level=3, received={})
        result = receiver.reconstruct(obs)
        assert result.next_level == 3
        assert material.accepts(3, result.keys[3])
        assert material.accepts(2, result.keys[2])
        assert material.accepts(1, result.keys[1])

    def test_uncongested_top_key_matches_exactly(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        receiver = LayeredDeltaReceiver(5)
        result = receiver.reconstruct(observation_from_fields(fields, level=4, received={}))
        assert result.keys[4] == material.keys[4].top

    def test_congested_receiver_cannot_obtain_current_top_key(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        receiver = LayeredDeltaReceiver(5)
        # Lose one packet of group 3 while subscribed to 3 groups.
        obs = observation_from_fields(fields, level=3, received={3: [0, 1, 2]})
        result = receiver.reconstruct(obs)
        assert result.next_level == 2
        assert 3 not in result.keys
        assert material.accepts(2, result.keys[2])
        assert material.accepts(1, result.keys[1])

    def test_congested_receiver_key_guess_is_wrong(self):
        """XORing an incomplete component set never yields the real key."""
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        incomplete = 0
        for i in (0, 1, 2):
            incomplete ^= fields[3][i].component
        incomplete ^= material.keys[2].top  # cumulative with groups 1..2 complete
        assert not material.accepts(3, incomplete)

    def test_upgrade_authorised_uncongested_receiver_gets_next_key(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4], upgrade_authorized=(4,))
        receiver = LayeredDeltaReceiver(5)
        obs = observation_from_fields(fields, level=3, received={}, upgrade_authorized=(4,))
        result = receiver.reconstruct(obs)
        assert result.next_level == 4
        assert material.accepts(4, result.keys[4])

    def test_upgrade_not_granted_without_authorization(self):
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        receiver = LayeredDeltaReceiver(5)
        result = receiver.reconstruct(observation_from_fields(fields, level=3, received={}))
        assert result.next_level == 3
        assert 4 not in result.keys

    def test_upgrade_beyond_maximal_group_impossible(self):
        sender = make_sender(groups=3)
        material, fields = emit_slot(sender, [3, 3, 3], upgrade_authorized=(3,))
        receiver = LayeredDeltaReceiver(3)
        obs = observation_from_fields(fields, level=3, received={}, upgrade_authorized=(4,))
        result = receiver.reconstruct(obs)
        assert result.next_level == 3

    def test_contradiction_resolution_keeps_top_group(self):
        """§3.1.1: only group g lost a packet and an upgrade to g is authorised."""
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4], upgrade_authorized=(3,))
        receiver = LayeredDeltaReceiver(5)
        obs = observation_from_fields(
            fields, level=3, received={3: [0, 2]}, upgrade_authorized=(3,)
        )
        result = receiver.reconstruct(obs)
        assert result.next_level == 3
        assert material.accepts(3, result.keys[3])

    def test_congested_level_one_receiver_loses_everything(self):
        sender = make_sender()
        _, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        receiver = LayeredDeltaReceiver(5)
        obs = observation_from_fields(fields, level=1, received={1: [0, 1]})
        result = receiver.reconstruct(obs)
        assert result.next_level == 0
        assert not result.keys

    def test_total_loss_of_middle_group_forces_deeper_drop(self):
        """If group g loses *all* packets, the decrease key for g-1 is unavailable."""
        sender = make_sender()
        material, fields = emit_slot(sender, [4, 4, 4, 4, 4])
        receiver = LayeredDeltaReceiver(5)
        obs = observation_from_fields(fields, level=4, received={3: []})
        result = receiver.reconstruct(obs)
        # The decrease key for group 2 travels in group 3's decrease fields;
        # with group 3 completely lost the receiver holds keys only for group 1
        # ("forced to reduce its subscription by more than one group", §3.1.1).
        assert result.next_level == 1
        assert material.accepts(1, result.keys[1])
        assert 2 not in result.keys

    def test_increase_key_does_not_open_the_group_above(self):
        sender = make_sender()
        material, _ = emit_slot(sender, [2, 2, 2, 2, 2], upgrade_authorized=(3,))
        key = material.keys[3].increase
        assert material.accepts(3, key)
        assert not material.accepts(4, key)

    def test_subscription_above_the_group_count_is_clamped(self):
        sender = make_sender(groups=3)
        material, fields = emit_slot(sender, [3, 3, 3])
        receiver = LayeredDeltaReceiver(3)
        result = receiver.reconstruct(observation_from_fields(fields, level=3, received={}))
        clamped = ReceiverSlotObservation(
            subscription_level=7,
            components={g: [f.component for f in fields[g]] for g in fields},
            decrease_fields={g: [f.decrease for f in fields[g] if f.decrease is not None]
                             for g in fields},
        )
        assert receiver.reconstruct(clamped) == result
        assert result.next_level == 3

    def test_every_reconstructed_key_opens_its_group(self):
        """Under random losses and upgrades a receiver holds keys for exactly
        groups ``1..next_level``, each accepted by the router, and never climbs
        more than one group."""
        rng = random.Random(7)
        for slot in range(200):
            sender = make_sender(seed=slot)
            counts = [rng.randint(1, 4) for _ in range(5)]
            upgrades = tuple(g for g in range(2, 6) if rng.random() < 0.3)
            material, fields = emit_slot(sender, counts, upgrade_authorized=upgrades, slot=slot)
            level = rng.randint(1, 5)
            received = {
                g: [i for i in range(counts[g - 1]) if rng.random() > 0.1]
                for g in range(1, level + 1)
            }
            obs = observation_from_fields(fields, level, received, upgrade_authorized=upgrades)
            result = LayeredDeltaReceiver(5).reconstruct(obs)
            assert sorted(result.keys) == list(range(1, result.next_level + 1))
            assert all(material.accepts(g, key) for g, key in result.keys.items())
            assert result.next_level <= level + 1
            if obs.congested:
                assert result.next_level <= level

    def test_zero_level_receiver_gets_nothing(self):
        receiver = LayeredDeltaReceiver(5)
        result = receiver.reconstruct(
            ReceiverSlotObservation(subscription_level=0)
        )
        assert result.next_level == 0
        assert not result.keys

    def test_submitted_pairs_sorted(self):
        sender = make_sender()
        _, fields = emit_slot(sender, [3, 3, 3, 3, 3])
        receiver = LayeredDeltaReceiver(5)
        result = receiver.reconstruct(observation_from_fields(fields, level=3, received={}))
        groups = [g for g, _ in result.submitted_pairs()]
        assert groups == sorted(groups)


class TestSlotIndependence:
    def test_keys_change_every_slot(self):
        sender = make_sender()
        first, _ = emit_slot(sender, [3, 3, 3, 3, 3], slot=0)
        second, _ = emit_slot(sender, [3, 3, 3, 3, 3], slot=1)
        assert first.keys[3].top != second.keys[3].top or first.keys[2].top != second.keys[2].top

    def test_old_components_useless_for_new_slot(self):
        sender = make_sender()
        first_material, first_fields = emit_slot(sender, [3, 3, 3, 3, 3], slot=0)
        second_material, _ = emit_slot(sender, [3, 3, 3, 3, 3], slot=1)
        receiver = LayeredDeltaReceiver(5)
        result = receiver.reconstruct(observation_from_fields(first_fields, level=2, received={}))
        assert not second_material.accepts(2, result.keys[2])
