"""Tests of the replicated DELTA instantiation."""

import random

from repro.core.delta import (
    ReceiverSlotObservation,
    ReplicatedDeltaReceiver,
    ReplicatedDeltaSender,
)
from repro.crypto.nonce import NonceGenerator


def make_replicated(groups=4, seed=0):
    return ReplicatedDeltaSender(groups, NonceGenerator(bits=16, rng=random.Random(seed)))


def emit_replicated_slot(sender, packets_per_group, upgrades=(), slot=0):
    material = sender.begin_slot(slot, upgrades)
    fields = {}
    for group, count in enumerate(packets_per_group, start=1):
        fields[group] = [
            sender.fields_for_packet(group, is_last_in_slot=(i == count - 1))
            for i in range(count)
        ]
    return material, fields


class TestReplicatedDelta:
    def test_top_key_is_per_group_not_cumulative(self):
        sender = make_replicated()
        material, fields = emit_replicated_slot(sender, [3, 3, 3, 3])
        for group in range(1, 5):
            group_xor = 0
            for field in fields[group]:
                group_xor ^= field.component
            assert material.keys[group].top == group_xor

    def test_increase_key_is_lower_groups_xor(self):
        sender = make_replicated()
        material, fields = emit_replicated_slot(sender, [3, 3, 3, 3], upgrades=(3,))
        lower_xor = 0
        for field in fields[2]:
            lower_xor ^= field.component
        assert material.keys[3].increase == lower_xor

    def test_uncongested_receiver_keeps_its_group(self):
        sender = make_replicated()
        material, fields = emit_replicated_slot(sender, [3, 3, 3, 3])
        receiver = ReplicatedDeltaReceiver(4)
        obs = ReceiverSlotObservation(
            subscription_level=2,
            components={2: [f.component for f in fields[2]]},
            decrease_fields={2: [f.decrease for f in fields[2]]},
        )
        result = receiver.reconstruct(obs)
        assert result.next_level == 2
        assert material.accepts(2, result.keys[2])

    def test_congested_receiver_switches_down(self):
        sender = make_replicated()
        material, fields = emit_replicated_slot(sender, [3, 3, 3, 3])
        receiver = ReplicatedDeltaReceiver(4)
        obs = ReceiverSlotObservation(
            subscription_level=3,
            components={3: [fields[3][0].component]},
            decrease_fields={3: [fields[3][0].decrease]},
            lost_groups=frozenset({3}),
        )
        result = receiver.reconstruct(obs)
        assert result.next_level == 2
        assert material.accepts(2, result.keys[2])
        assert 3 not in result.keys

    def test_congested_group_one_receiver_drops_out(self):
        receiver = ReplicatedDeltaReceiver(4)
        obs = ReceiverSlotObservation(
            subscription_level=1, lost_groups=frozenset({1}), components={1: [1]}
        )
        assert receiver.reconstruct(obs).next_level == 0

    def test_total_loss_leaves_no_keys(self):
        receiver = ReplicatedDeltaReceiver(4)
        obs = ReceiverSlotObservation(
            subscription_level=3, lost_groups=frozenset({3}), components={}, decrease_fields={}
        )
        assert receiver.reconstruct(obs).next_level == 0

    def test_authorised_upgrade_switches_up(self):
        sender = make_replicated()
        material, fields = emit_replicated_slot(sender, [3, 3, 3, 3], upgrades=(3,))
        receiver = ReplicatedDeltaReceiver(4)
        obs = ReceiverSlotObservation(
            subscription_level=2,
            components={2: [f.component for f in fields[2]]},
            decrease_fields={},
            upgrade_authorized=frozenset({3}),
        )
        result = receiver.reconstruct(obs)
        assert result.next_level == 3
        assert material.accepts(3, result.keys[3])

    def test_upgrade_key_rejected_for_wrong_group(self):
        sender = make_replicated()
        material, fields = emit_replicated_slot(sender, [3, 3, 3, 3], upgrades=(3,))
        key = material.keys[3].increase
        assert not material.accepts(4, key)
