"""Tests of the analysis helpers (fairness, convergence, reporting)."""

import pytest

from repro.analysis import (
    convergence_time,
    format_table,
    jain_index,
    levels_converged,
    max_min_ratio,
)
from repro.analysis.convergence import level_at


class TestFairness:
    def test_jain_equal(self):
        assert jain_index([250, 250, 250, 250]) == pytest.approx(1.0)

    def test_jain_single_hog(self):
        assert jain_index([1000, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_empty(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_jain_matches_figure1_intuition(self):
        """Figure 1 (attack) must be far less fair than Figure 7 (protected)."""
        attacked = jain_index([690, 100, 80, 70])
        protected = jain_index([240, 250, 260, 250])
        assert protected > 0.99
        assert attacked < 0.65

    def test_max_min_ratio(self):
        assert max_min_ratio([100, 200]) == pytest.approx(2.0)
        assert max_min_ratio([100, 0]) == float("inf")
        assert max_min_ratio([]) == 1.0
        assert max_min_ratio([0, 0]) == 1.0


class TestConvergence:
    HISTORIES = [
        [(0.0, 1), (5.0, 3), (10.0, 4)],
        [(10.0, 1), (15.0, 3), (20.0, 4)],
    ]

    def test_level_at(self):
        assert level_at(self.HISTORIES[0], 0.0) == 1
        assert level_at(self.HISTORIES[0], 7.0) == 3
        assert level_at(self.HISTORIES[1], 5.0) == 0

    def test_levels_converged(self):
        assert not levels_converged(self.HISTORIES, 12.0, tolerance=1)
        assert levels_converged(self.HISTORIES, 21.0, tolerance=1)

    def test_convergence_time_found(self):
        t = convergence_time(self.HISTORIES, start_s=10.0, end_s=40.0, hold_s=3.0)
        assert t is not None
        assert t >= 15.0

    def test_convergence_time_none_when_never(self):
        diverged = [[(0.0, 1)], [(0.0, 8)]]
        assert convergence_time(diverged, 0.0, 20.0) is None

    def test_empty_window(self):
        assert convergence_time(self.HISTORIES, 10.0, 5.0) is None

    def test_empty_histories_always_converged(self):
        assert levels_converged([], 0.0)


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "rate"], [["F1", 690.0], ["T1", 80.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "rate" in lines[0]
        assert "690.0" in text
        assert "80.2" in text or "80.3" in text

    def test_format_table_handles_wide_cells(self):
        text = format_table(["x"], [["a-very-long-cell-value"]])
        assert "a-very-long-cell-value" in text
