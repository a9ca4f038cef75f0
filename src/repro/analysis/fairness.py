"""Fairness metrics.

The paper argues about fairness qualitatively (Figure 1 versus Figure 7);
these helpers quantify it for the figure reducers of
:mod:`repro.experiments.figure1` and :mod:`repro.experiments.figure8`, whose
tables ``tests/integration/test_paper_claims.py`` asserts the paper's claims
on: Jain's fairness index (``jain_index``, the one body in
:func:`repro.simulator.monitors.jain_fairness` under its analysis-layer
name) and the max/min share ratio.
"""

from __future__ import annotations

from typing import Sequence

from ..simulator.monitors import jain_fairness as jain_index

__all__ = ["jain_index", "max_min_ratio"]


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

