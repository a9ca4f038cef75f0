"""Property-based tests (hypothesis) of the core invariants.

The invariants checked here are the ones the paper's security argument rests
on: XOR key reconstruction requires every component, Shamir reconstruction
requires the threshold, the erasure code is MDS, DELTA eligibility matches
congestion status for arbitrary loss patterns, and the event engine is
order-preserving.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import LayeredDeltaReceiver, LayeredDeltaSender, ReceiverSlotObservation
from repro.crypto import KeyAccumulator, NonceGenerator, ShamirSecretSharing, xor_fold
from repro.fec import ErasureCode, FecConfig
from repro.simulator.engine import Simulator
from repro.simulator.queues import DropTailQueue
from repro.simulator.address import NodeAddress
from repro.simulator.packet import Packet

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fec"))
from fec_oracle import oracle_encode  # noqa: E402  (the kernel's reference lives beside its tests)

KEY_BITS = 16
keys16 = st.integers(min_value=0, max_value=2**KEY_BITS - 1)


class TestXorKeyProperties:
    @given(target=keys16, nonces=st.lists(keys16, max_size=30))
    def test_accumulator_always_closes_to_target(self, target, nonces):
        acc = KeyAccumulator(target, KEY_BITS)
        emitted = [acc.emit_component(n) for n in nonces]
        emitted.append(acc.closing_component())
        assert xor_fold(emitted) == target

    @given(
        target=keys16,
        nonces=st.lists(keys16, min_size=2, max_size=30),
        drop=st.data(),
    )
    def test_missing_any_component_breaks_reconstruction(self, target, nonces, drop):
        acc = KeyAccumulator(target, KEY_BITS)
        emitted = [acc.emit_component(n) for n in nonces]
        emitted.append(acc.closing_component())
        index = drop.draw(st.integers(min_value=0, max_value=len(emitted) - 1))
        partial = emitted[:index] + emitted[index + 1 :]
        # XOR of a strict subset equals the key only if the dropped component
        # is zero, which the reconstruction cannot distinguish -- but then the
        # "partial" view still folds to the key, so exclude that case.
        if emitted[index] != 0:
            assert xor_fold(partial) != target


class TestShamirProperties:
    @given(
        secret=st.integers(min_value=0, max_value=2**31 - 1),
        threshold=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_threshold_subset_reconstructs(self, secret, threshold, extra, seed):
        rng = random.Random(seed)
        sharer = ShamirSecretSharing(threshold=threshold, rng=rng)
        shares = sharer.split(secret, threshold + extra)
        subset = rng.sample(shares, threshold)
        assert sharer.reconstruct(subset) == secret

    @given(
        secret=st.integers(min_value=0, max_value=2**31 - 1),
        threshold=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_below_threshold_subset_is_refused(self, secret, threshold, seed):
        rng = random.Random(seed)
        sharer = ShamirSecretSharing(threshold=threshold, rng=rng)
        shares = sharer.split(secret, threshold + 2)
        subset = rng.sample(shares, threshold - 1)
        try:
            sharer.reconstruct(subset)
        except ValueError:
            return
        raise AssertionError("reconstruction below the threshold must be refused")


field_symbols = st.integers(min_value=0, max_value=ErasureCode().prime - 1)


class TestErasureCodeProperties:
    @given(
        symbols=st.lists(field_symbols, min_size=1, max_size=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_k_of_n_symbols_decode(self, symbols, seed):
        code = ErasureCode(FecConfig(0.5))
        coded = code.encode(symbols)
        rng = random.Random(seed)
        survivors = rng.sample(coded, len(symbols))
        assert code.decode(survivors, len(symbols)) == symbols

    @given(symbols=st.lists(field_symbols, min_size=2, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_systematic_prefix_equals_source(self, symbols):
        code = ErasureCode(FecConfig(0.5))
        coded = code.encode(symbols)
        assert [v for _, v in coded[: len(symbols)]] == symbols

    @given(symbols=st.lists(field_symbols, min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_encode_equals_row_major_oracle(self, symbols):
        assert ErasureCode().encode(symbols) == oracle_encode(symbols, 2 * len(symbols))


class TestDeltaEligibilityProperties:
    @given(
        level=st.integers(min_value=1, max_value=6),
        packets=st.lists(st.integers(min_value=1, max_value=6), min_size=6, max_size=6),
        loss_pattern=st.data(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_keys_granted_iff_entitled(self, level, packets, loss_pattern, seed):
        """For arbitrary loss patterns, the reconstructed keys are exactly the
        ones the subscription rules entitle the receiver to, and every
        reconstructed key is accepted by the key material (never a junk key
        for a group above the entitled level)."""
        groups = 6
        sender = LayeredDeltaSender(groups, NonceGenerator(bits=KEY_BITS, rng=random.Random(seed)))
        material = sender.begin_slot(0, ())
        fields = {
            g: [sender.fields_for_packet(g, is_last_in_slot=(i == packets[g - 1] - 1)) for i in range(packets[g - 1])]
            for g in range(1, groups + 1)
        }
        # Draw a subset of received packets for each subscribed group.
        components, decreases, lost = {}, {}, set()
        for g in range(1, level + 1):
            keep = loss_pattern.draw(
                st.sets(st.integers(min_value=0, max_value=packets[g - 1] - 1))
            )
            kept = sorted(keep)
            components[g] = [fields[g][i].component for i in kept]
            decreases[g] = [fields[g][i].decrease for i in kept if fields[g][i].decrease is not None]
            if len(kept) < packets[g - 1]:
                lost.add(g)
        receiver = LayeredDeltaReceiver(groups)
        result = receiver.reconstruct(
            ReceiverSlotObservation(
                subscription_level=level,
                components=components,
                decrease_fields=decreases,
                lost_groups=frozenset(lost),
            )
        )
        # Entitlement: uncongested -> keep level; congested -> at most level-1.
        if not lost:
            assert result.next_level == level
        else:
            assert result.next_level <= level - 1
        # Every submitted key must actually open its group.
        for group, key in result.keys.items():
            assert material.accepts(group, key)
        # Keys are a contiguous prefix 1..next_level.
        assert sorted(result.keys) == list(range(1, result.next_level + 1))


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50))
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        executed = []
        for delay in delays:
            sim.schedule(delay, lambda: executed.append(sim.now))
        sim.run()
        assert executed == sorted(executed)
        assert len(executed) == len(delays)


class TestQueueProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000), max_size=60))
    def test_enqueue_dequeue_drop_accounting(self, sizes):
        queue = DropTailQueue(capacity_bytes=5000)
        for size in sizes:
            queue.enqueue(
                Packet(source=NodeAddress(1), destination=NodeAddress(2), size_bytes=size)
            )
        drained = 0
        while queue.dequeue() is not None:
            drained += 1
        stats = queue.stats
        assert stats.enqueued_packets + stats.dropped_packets == len(sizes)
        assert stats.dequeued_packets == drained == stats.enqueued_packets
        assert queue.queued_bytes == 0
