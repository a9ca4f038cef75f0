"""Fairness metrics.

The paper argues about fairness qualitatively (Figure 1 versus Figure 7);
these helpers quantify it so ``tests/integration/test_paper_claims.py`` can
assert on it: Jain's fairness index (``jain_index``, the one body in
:func:`repro.simulator.monitors.jain_fairness` under its analysis-layer
name), the max/min share ratio, and normalised bandwidth shares.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..simulator.monitors import jain_fairness as jain_index

__all__ = ["jain_index", "max_min_ratio", "bandwidth_shares"]


def max_min_ratio(throughputs: Sequence[float]) -> float:
    """Ratio of the largest to the smallest throughput (1.0 = equal shares).

    Returns ``inf`` when some flow is completely starved, which is itself a
    meaningful signal in the inflated-subscription experiments.
    """
    values = [v for v in throughputs]
    if not values:
        return 1.0
    smallest = min(values)
    largest = max(values)
    if smallest <= 0:
        return float("inf") if largest > 0 else 1.0
    return largest / smallest


def bandwidth_shares(throughputs: Dict[str, float]) -> Dict[str, float]:
    """Normalise named throughputs to fractions of the total."""
    total = sum(throughputs.values())
    if total <= 0:
        return {name: 0.0 for name in throughputs}
    return {name: value / total for name, value in throughputs.items()}
