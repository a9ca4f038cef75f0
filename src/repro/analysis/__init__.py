"""Analysis helpers: fairness, convergence, protection and report formatting."""

from .fairness import jain_index, max_min_ratio
from .convergence import convergence_time, levels_converged, subscription_vector
from .protection import (
    excess_goodput_kbps,
    time_to_containment_s,
    weighted_excess_goodput_kbps,
    weighted_honest_baseline_kbps,
)
from .reporting import (
    aggregate_metrics,
    flatten_metrics,
    format_aggregate_table,
    format_protection_table,
    format_table,
    write_json,
)

__all__ = [
    "jain_index",
    "max_min_ratio",
    "convergence_time",
    "levels_converged",
    "subscription_vector",
    "excess_goodput_kbps",
    "time_to_containment_s",
    "weighted_excess_goodput_kbps",
    "weighted_honest_baseline_kbps",
    "aggregate_metrics",
    "flatten_metrics",
    "format_aggregate_table",
    "format_protection_table",
    "format_table",
    "write_json",
]
