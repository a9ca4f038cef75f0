"""Tests of the multicast session description."""

import pytest

from repro.multicast_cc import SessionSpec, fair_level_for_rate
from repro.simulator.address import MULTICAST_BASE, GroupAddress


def addresses(n):
    return [GroupAddress(MULTICAST_BASE + 100 + i) for i in range(n)]


class TestRates:
    def test_paper_defaults(self):
        spec = SessionSpec("s")
        assert spec.group_count == 10
        assert spec.base_rate_bps == pytest.approx(100_000.0)
        assert spec.rate_factor == pytest.approx(1.5)

    def test_cumulative_rate_is_multiplicative(self):
        spec = SessionSpec("s")
        assert spec.cumulative_rate_bps(1) == pytest.approx(100_000.0)
        assert spec.cumulative_rate_bps(2) == pytest.approx(150_000.0)
        assert spec.cumulative_rate_bps(10) == pytest.approx(100_000.0 * 1.5**9)

    def test_cumulative_rate_clamps(self):
        spec = SessionSpec("s")
        assert spec.cumulative_rate_bps(0) == 0.0
        assert spec.cumulative_rate_bps(99) == spec.cumulative_rate_bps(10)

    def test_group_rates_sum_to_cumulative(self):
        spec = SessionSpec("s")
        total = sum(spec.group_rate_bps(g) for g in range(1, 11))
        assert total == pytest.approx(spec.cumulative_rate_bps(10))

    def test_group_rate_bounds(self):
        spec = SessionSpec("s")
        with pytest.raises(ValueError):
            spec.group_rate_bps(0)
        with pytest.raises(ValueError):
            spec.group_rate_bps(11)

    def test_packet_interval_consistent_with_rate(self):
        spec = SessionSpec("s")
        interval = spec.packet_interval_s(1)
        assert interval == pytest.approx(576 * 8 / 100_000.0)

    def test_packets_per_slot(self):
        spec = SessionSpec("s", slot_duration_s=0.5)
        assert spec.packets_per_slot(1) == round(100_000 * 0.5 / (576 * 8))


class TestUpgradeSignalling:
    def test_probability_decays_with_group(self):
        spec = SessionSpec("s")
        assert spec.upgrade_probability(2) >= spec.upgrade_probability(3) >= spec.upgrade_probability(5)

    def test_group_one_never_authorised(self):
        assert SessionSpec("s").upgrade_probability(1) == 0.0

    def test_probability_scales_with_slot_duration(self):
        dl = SessionSpec("s", slot_duration_s=0.5)
        ds = SessionSpec("s", slot_duration_s=0.25)
        # Same per-second signalling rate: per-slot probability halves.
        assert ds.upgrade_probability(3) == pytest.approx(dl.upgrade_probability(3) / 2)

    def test_probability_capped_at_one(self):
        assert SessionSpec("s", slot_duration_s=5.0).upgrade_probability(2) == 1.0


class TestAddresses:
    def test_with_addresses_binds_groups(self):
        spec = SessionSpec("s").with_addresses(addresses(10))
        assert spec.minimal_group() == spec.address_of(1)
        assert spec.group_index_of(spec.address_of(7)) == 7
        assert spec.group_index_of(GroupAddress(MULTICAST_BASE + 999)) is None

    def test_with_addresses_preserves_other_fields(self):
        spec = SessionSpec("s", slot_duration_s=0.25, rate_factor=1.3)
        bound = spec.with_addresses(addresses(10))
        assert bound.slot_duration_s == 0.25
        assert bound.rate_factor == 1.3

    def test_wrong_address_count_rejected(self):
        with pytest.raises(ValueError):
            SessionSpec("s", group_addresses=tuple(addresses(3)))

    def test_unbound_spec_rejects_address_queries(self):
        with pytest.raises(ValueError):
            SessionSpec("s").minimal_group()


class TestFairLevel:
    def test_fair_level_for_paper_rates(self):
        spec = SessionSpec("s")
        # 250 Kbps fits level 3 (225 Kbps) but not level 4 (337.5 Kbps).
        assert spec.fair_level(250_000.0) == 3
        assert spec.fair_level(99_000.0) == 0
        assert spec.fair_level(10_000_000.0) == 10

    def test_fair_level_helper_edges(self):
        assert fair_level_for_rate(100_000, 100_000, 1.5, 10) == 1
        assert fair_level_for_rate(50_000, 100_000, 1.5, 10) == 0
        assert fair_level_for_rate(1e9, 100_000, 1.5, 10) == 10
        assert fair_level_for_rate(300_000, 100_000, 1.0, 5) == 1


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SessionSpec("s", group_count=0)
        with pytest.raises(ValueError):
            SessionSpec("s", base_rate_bps=0)
        with pytest.raises(ValueError):
            SessionSpec("s", rate_factor=0.9)
        with pytest.raises(ValueError):
            SessionSpec("s", packet_bytes=0)
        with pytest.raises(ValueError):
            SessionSpec("s", slot_duration_s=0)
