"""Unit + Hypothesis property tests of the protection metric helpers."""

import pytest

from repro.analysis.protection import (
    combined_containment_s,
    excess_goodput_kbps,
    goodput_containment_s,
    time_to_containment_s,
    weighted_honest_baseline_kbps,
)
from repro.analysis import subscription_vector

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestBaselineAndExcess:
    def test_baseline_means_honest_rates(self):
        assert weighted_honest_baseline_kbps([(100.0, 1), (200.0, 1)], 250.0) == 150.0
        assert weighted_honest_baseline_kbps([(100.0, 3), (200.0, 1)], 250.0) == 125.0

    def test_baseline_falls_back_without_honest_receivers(self):
        assert weighted_honest_baseline_kbps([], 250.0) == 250.0

    def test_excess_is_signed(self):
        assert excess_goodput_kbps(300.0, 250.0) == 50.0
        assert excess_goodput_kbps(200.0, 250.0) == -50.0


class TestTimeToContainment:
    def test_never_exceeding_the_bound_is_contained_immediately(self):
        history = [(0.0, 1), (5.0, 2)]
        assert time_to_containment_s(history, onset_s=4.0, bound_level=3, end_s=20.0) == 0.0

    def test_contained_after_drop(self):
        history = [(0.0, 1), (10.0, 9), (13.0, 2)]
        assert time_to_containment_s(history, 10.0, 3, 30.0) == 3.0

    def test_never_contained(self):
        history = [(0.0, 1), (10.0, 9)]
        assert time_to_containment_s(history, 10.0, 3, 30.0) is None

    def test_relapse_restarts_the_clock(self):
        history = [(0.0, 1), (10.0, 9), (12.0, 2), (14.0, 8), (18.0, 1)]
        assert time_to_containment_s(history, 10.0, 3, 30.0) == 8.0

    def test_violation_after_end_is_ignored(self):
        history = [(0.0, 1), (40.0, 9)]
        assert time_to_containment_s(history, 10.0, 3, 30.0) == 0.0


class TestGoodputContainment:
    def test_rate_dropping_under_the_bound_contains(self):
        series = [(11.0, 500.0), (12.0, 400.0), (13.0, 100.0), (14.0, 90.0)]
        assert goodput_containment_s(series, 10.0, 200.0, 30.0) == 3.0

    def test_rate_staying_above_the_bound_never_contains(self):
        series = [(11.0, 500.0), (12.0, 400.0)]
        assert goodput_containment_s(series, 10.0, 200.0, 30.0) is None

    def test_combined_takes_the_earliest_view(self):
        assert combined_containment_s(5.0, 2.0) == 2.0
        assert combined_containment_s(None, 2.0) == 2.0
        assert combined_containment_s(5.0, None) == 5.0
        assert combined_containment_s(None, None) is None


level_histories = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=10),
    ),
    max_size=30,
).map(lambda entries: sorted(entries, key=lambda e: e[0]))


class TestContainmentProperties:
    @settings(max_examples=200, deadline=None)
    @given(history=level_histories, bound=st.integers(min_value=0, max_value=10))
    def test_containment_is_none_iff_final_level_violates(self, history, bound):
        """The attacker ends contained exactly when its final level fits."""
        onset, end = 10.0, 50.0
        final_level = 0
        for time_s, level in history:
            if time_s <= end:
                final_level = level
        result = time_to_containment_s(history, onset, bound, end)
        if final_level > bound:
            assert result is None
        else:
            assert result is not None and 0.0 <= result <= end - onset

    @settings(max_examples=200, deadline=None)
    @given(history=level_histories)
    def test_generous_bound_always_contains_at_zero(self, history):
        assert time_to_containment_s(history, 10.0, 10, 50.0) == 0.0


class TestSubscriptionVector:
    def test_samples_levels_at_slot_boundaries(self):
        history = [(0.1, 1), (0.6, 2), (1.4, 3)]
        assert subscription_vector(history, slot_duration_s=0.5, duration_s=2.0) == [
            1,
            2,
            3,
            3,
        ]

    @settings(max_examples=100, deadline=None)
    @given(history=level_histories)
    def test_vector_length_matches_slot_count(self, history):
        vector = subscription_vector(history, slot_duration_s=0.5, duration_s=20.0)
        assert len(vector) == 40
        assert all(0 <= level <= 10 for level in vector)
