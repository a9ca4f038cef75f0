"""Tests of the crypto substrate: nonces and the XOR key algebra."""

import random

import pytest

from repro.crypto import (
    KeyAccumulator,
    NonceGenerator,
    xor_fold,
)


class TestNonceGenerator:
    def test_values_fit_width(self):
        gen = NonceGenerator(bits=16, rng=random.Random(0))
        assert all(0 <= gen.next() < 2**16 for _ in range(100))

    def test_deterministic_with_seed(self):
        a = NonceGenerator(bits=16, rng=random.Random(42))
        b = NonceGenerator(bits=16, rng=random.Random(42))
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_counts_generated(self):
        gen = NonceGenerator(bits=8, rng=random.Random(0))
        for _ in range(7):
            gen.next()
        assert gen.generated == 7

    def test_mask_and_space(self):
        gen = NonceGenerator(bits=8)
        assert gen.mask == 255
        assert gen.space_size == 256
        assert gen.fits(255)
        assert not gen.fits(256)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            NonceGenerator(bits=0)


class TestXorFold:
    def test_empty_is_zero(self):
        assert xor_fold([]) == 0

    def test_self_inverse(self):
        values = [0x1234, 0xABCD, 0x0F0F]
        assert xor_fold(values + values) == 0

    def test_order_independent(self):
        values = [1, 2, 3, 4, 5]
        assert xor_fold(values) == xor_fold(reversed(values))


class TestKeyAccumulator:
    def test_components_fold_to_target(self):
        rng = random.Random(1)
        acc = KeyAccumulator(target_key=0xBEEF, bits=16)
        components = [acc.emit_component(rng.getrandbits(16)) for _ in range(9)]
        components.append(acc.closing_component())
        assert xor_fold(components) == 0xBEEF

    def test_single_packet_slot(self):
        acc = KeyAccumulator(target_key=0x1234, bits=16)
        assert acc.closing_component() == 0x1234

    def test_closed_accumulator_rejects_more(self):
        acc = KeyAccumulator(target_key=1, bits=16)
        acc.closing_component()
        with pytest.raises(RuntimeError):
            acc.emit_component(5)
        with pytest.raises(RuntimeError):
            acc.closing_component()

    def test_target_must_fit(self):
        with pytest.raises(ValueError):
            KeyAccumulator(target_key=0x1_0000, bits=16)

    def test_nonce_must_fit(self):
        acc = KeyAccumulator(target_key=0, bits=8)
        with pytest.raises(ValueError):
            acc.emit_component(256)

    def test_running_value_tracks_emissions(self):
        acc = KeyAccumulator(target_key=0xFF, bits=8)
        acc.emit_component(0x0F)
        acc.emit_component(0xF0)
        assert acc.running_value == 0xFF
        acc.closing_component()
        assert acc.running_value == 0xFF
        assert acc.closed
