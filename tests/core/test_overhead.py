"""Tests of the §5.4 analytic overhead model."""

import pytest

from repro.core.overhead import FIGURE9_DEFAULTS, OverheadModel


class TestOverheadModel:
    def test_rate_factor_solves_equation_10(self):
        model = OverheadModel(cumulative_rate_bps=4e6, minimal_rate_bps=1e5, group_count=10)
        # r * m^(N-1) must reproduce R.
        assert model.minimal_rate_bps * model.rate_factor ** 9 == pytest.approx(4e6)

    def test_single_group_rate_factor(self):
        model = OverheadModel(group_count=1)
        assert model.rate_factor == 1.0

    def test_packets_per_slot_equation_11(self):
        model = OverheadModel()
        expected = model.cumulative_rate_bps * model.slot_duration_s / model.data_bits_per_packet
        assert model.packets_per_slot() == pytest.approx(expected)

    def test_delta_overhead_closed_form(self):
        model = OverheadModel()
        m = model.rate_factor
        expected = (2 - 1 / m ** 9) * 16 / 4000
        assert model.delta_overhead() == pytest.approx(expected)

    def test_delta_overhead_magnitude_matches_paper(self):
        """The paper reports roughly 0.8 % for DELTA across both sweeps."""
        assert 0.6 <= FIGURE9_DEFAULTS.delta_overhead_percent() <= 0.9

    def test_sigma_overhead_magnitude_matches_paper(self):
        """The paper reports SIGMA staying under 0.6 %."""
        assert 0.0 < FIGURE9_DEFAULTS.sigma_overhead_percent() < 0.6

    def test_delta_overhead_bounded_by_two_fields(self):
        """O_delta can never exceed 2b/s (component + decrease on every packet)."""
        for n in range(1, 21):
            model = OverheadModel(group_count=n)
            assert model.delta_overhead() <= 2 * model.key_bits / model.data_bits_per_packet + 1e-12

    def test_sigma_overhead_decreases_with_slot_duration(self):
        short = OverheadModel(slot_duration_s=0.2).sigma_overhead()
        long = OverheadModel(slot_duration_s=1.0).sigma_overhead()
        assert long < short

    def test_delta_overhead_independent_of_slot_duration(self):
        a = OverheadModel(slot_duration_s=0.2).delta_overhead()
        b = OverheadModel(slot_duration_s=1.0).delta_overhead()
        assert a == pytest.approx(b)

    def test_sweep_group_count_covers_requested_points(self):
        points = OverheadModel().sweep_group_count([2, 10, 20])
        assert [p.parameter for p in points] == [2.0, 10.0, 20.0]
        assert all(p.delta_percent > 0 and p.sigma_percent > 0 for p in points)

    def test_sweep_slot_duration(self):
        points = OverheadModel().sweep_slot_duration([0.25, 0.5])
        assert points[0].sigma_percent > points[1].sigma_percent
