"""Fairness metrics.

The paper argues about fairness qualitatively (Figure 1 versus Figure 7);
these helpers quantify it for two figure reducers, whose tables
``tests/integration/test_paper_claims.py`` asserts the paper's claims on:
Jain's fairness index over the four flows before and during the attack
(:mod:`repro.experiments.figure1`, Figures 1 and 7) and the max/min share
ratio across heterogeneous-RTT receivers (:mod:`repro.experiments.figure8`,
Figure 8(f)).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["jain_index", "max_min_ratio"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is maximally unfair."""
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


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
