"""Tests of the FEC erasure codes used by SIGMA."""

import random
from fractions import Fraction

import pytest

from fec_oracle import oracle_decode, oracle_encode
from repro.fec import ErasureCode, FecConfig, RepetitionCode
from repro.fec import erasure

P = ErasureCode().prime


class TestFecConfig:
    def test_expansion_factor_for_half_loss(self):
        assert FecConfig(0.5).expansion_factor == pytest.approx(2.0)

    def test_zero_tolerance_is_no_expansion(self):
        assert FecConfig(0.0).expansion_factor == pytest.approx(1.0)

    def test_coded_symbol_count(self):
        assert FecConfig(0.5).coded_symbols(10) == 20
        assert FecConfig(0.25).coded_symbols(9) == 12

    def test_ceilings_are_exact_at_every_declared_tolerance(self):
        """``1 / (1 - 0.8)`` is 5.000000000000001 as a float; 5k + 1 symbols is wrong."""
        tolerances = ("0", "0.1", "0.2", "0.25", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9")
        for text in tolerances:
            config, z = FecConfig(float(text)), 1 / (1 - Fraction(text))
            code = ErasureCode(config)
            for count in range(1, 200):
                exact = -(-count * z.numerator // z.denominator)
                assert config.coded_symbols(count) == exact, (text, count)
                assert code.overhead_bits(count) == exact, (text, count)
        assert FecConfig(0.8).coded_symbols(7) == 35
        assert ErasureCode(FecConfig(0.8)).overhead_bits(100) == 500

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            FecConfig(1.0)
        with pytest.raises(ValueError):
            FecConfig(-0.1)

    def test_invalid_source_count(self):
        with pytest.raises(ValueError):
            FecConfig().coded_symbols(0)


class TestErasureCode:
    def test_systematic_prefix(self):
        code = ErasureCode()
        source = [10, 20, 30]
        coded = code.encode(source)
        assert [value for _, value in coded[:3]] == source

    def test_decode_without_loss(self):
        code = ErasureCode()
        source = [7, 8, 9, 10]
        assert code.decode(code.encode(source), len(source)) == source

    def test_decode_from_parity_only(self):
        code = ErasureCode()
        source = [101, 202, 303]
        coded = code.encode(source, coded_count=6)
        assert code.decode(coded[3:], len(source)) == source

    def test_decode_from_any_half(self):
        code = ErasureCode(FecConfig(0.5))
        source = list(range(1, 11))
        coded = code.encode(source)
        rng = random.Random(3)
        survivors = rng.sample(coded, len(source))
        assert code.decode(survivors, len(source)) == source

    def test_too_much_loss_raises(self):
        code = ErasureCode(FecConfig(0.5))
        source = list(range(5))
        coded = code.encode(source)
        with pytest.raises(ValueError):
            code.decode(coded[:4], len(source))

    def test_duplicate_symbols_do_not_help(self):
        code = ErasureCode()
        source = [5, 6, 7]
        coded = code.encode(source, coded_count=6)
        duplicated = [coded[0]] * 5
        with pytest.raises(ValueError):
            code.decode(duplicated, len(source))

    def test_coded_count_below_source_rejected(self):
        code = ErasureCode()
        with pytest.raises(ValueError):
            code.encode([1, 2, 3], coded_count=2)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            ErasureCode().encode([])

    def test_symbol_out_of_field_rejected(self):
        """The lane bound of the packed kernel rests on ``0 <= symbol < p``."""
        code = ErasureCode()
        for bad in ([code.prime], [-1], [3, code.prime, 4], [3, 4, -1]):
            with pytest.raises(ValueError):
                code.encode(bad)

    def test_large_announcement_roundtrip(self):
        """The size SIGMA actually uses: ~42 symbols expanded 2x."""
        code = ErasureCode(FecConfig(0.5))
        rng = random.Random(11)
        source = [rng.getrandbits(32) for _ in range(42)]
        coded = code.encode(source)
        assert len(coded) == 84
        survivors = rng.sample(coded, 42)
        assert code.decode(survivors, 42) == source

    def test_overhead_bits(self):
        assert ErasureCode(FecConfig(0.5)).overhead_bits(100) == 200


#: Code shapes around the lane-width steps (k = 63 | 64 | 65) plus SIGMA's own.
SHAPES = [(1, 1), (1, 2), (3, 9), (5, 5), (42, 84), (63, 126), (64, 128), (65, 130), (100, 200)]


def _sources(k, rng):
    yield "zero", [0] * k
    yield "all p-1", [P - 1] * k  # the worst case the lane width is derived from
    for bits in (16, 32, 61):
        yield f"{bits}-bit", [rng.getrandbits(bits) % P for _ in range(k)]


class TestKernelAgainstOracle:
    """The packed big-integer kernel is bit-equal to the row-major loop."""

    @pytest.mark.parametrize("k,n", SHAPES)
    def test_encode_equals_oracle(self, k, n):
        code, rng = ErasureCode(), random.Random(k * 1000 + n)
        for label, source in _sources(k, rng):
            assert code.encode(source, n) == oracle_encode(source, n), label

    @pytest.mark.parametrize("k,n", [shape for shape in SHAPES if shape[1] >= 2 * shape[0]])
    def test_decode_equals_oracle_and_source(self, k, n):
        code, rng = ErasureCode(), random.Random(k * 1000 + n + 1)
        for label, source in _sources(k, rng):
            coded = code.encode(source, n)
            for survivors in (coded[k : 2 * k], rng.sample(coded, k), rng.sample(coded, k)):
                decoded = code.decode(survivors, k)
                assert decoded == source, label
                assert decoded == oracle_decode(survivors, k), label

    @pytest.mark.parametrize("k", [1, 63, 64, 127, 128, 255, 256])
    def test_a_full_lane_does_not_carry(self, k):
        """k products of (p-1)(p-1) in every lane: the largest sum a lane can be asked to hold."""
        lanes, lane = 3, erasure._lane_bytes(k)
        column = int.from_bytes((P - 1).to_bytes(lane, "little") * lanes, "little")
        assert erasure._evaluate([column] * k, [P - 1] * k, lanes) == [k % P] * lanes

    def test_a_lane_one_byte_narrower_fails(self, monkeypatch):
        """The width is not generous: shave a byte off (42, 84) and all-(p-1) breaks."""
        source = [P - 1] * 42
        width = erasure._lane_bytes(42)
        monkeypatch.setattr(erasure, "_lane_bytes", lambda k: width - 1)
        erasure._packed_columns.cache_clear()
        try:
            with pytest.raises((OverflowError, AssertionError)):
                assert ErasureCode().encode(source, 84) == oracle_encode(source, 84)
        finally:
            erasure._packed_columns.cache_clear()  # nothing built with the narrow lane survives


class TestRepetitionCode:
    def test_roundtrip(self):
        code = RepetitionCode(copies=2)
        source = [1, 2, 3]
        assert code.decode(code.encode(source), 3) == source

    def test_missing_symbol_fails(self):
        code = RepetitionCode(copies=1)
        coded = code.encode([1, 2, 3])
        with pytest.raises(ValueError):
            code.decode(coded[:2], 3)

    def test_survives_loss_of_one_copy(self):
        code = RepetitionCode(copies=2)
        coded = code.encode([9, 8, 7])
        assert code.decode(coded[3:], 3) == [9, 8, 7]

    def test_expansion_factor(self):
        assert RepetitionCode(copies=3).expansion_factor == 3.0

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            RepetitionCode(copies=0)
