"""Figure 9 — communication overhead of DELTA and SIGMA.

Section 5.4 quantifies the cost of the protection as the ratio of protection
bits to data bits, both analytically (the closed-form expressions implemented
in :mod:`repro.core.overhead`) and for a concrete FLID-DS session: 500-byte
packets, 4 Mbps cumulative rate, 100 Kbps minimal group, 16-bit keys, 8-bit
slot numbers and FEC sized for 50 % loss.

Two sweeps are reported:

* Figure 9(a): overhead versus the number of groups (2 to 20) at 250 ms slots;
* Figure 9(b): overhead versus the slot duration (0.2 s to 1 s) with 10 groups.

The paper finds DELTA stays around 0.8 % and SIGMA under 0.6 %.  Both sweeps
are analytic figures (no cells).  In addition, the measured-overhead figure
runs a short FLID-DS session through the full simulator and sets the
overhead actually accumulated on the wire beside the model of that very
session, so the model and the implementation can be cross-checked.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.overhead import OverheadModel, OverheadPoint
from ..multicast_cc.session import SessionSpec
from .registry import register_figure, register_scenario
from .metrics import RunResult
from .spec import ScenarioSpec, SessionDecl

__all__ = [
    "figure9_model",
    "PAPER_GROUP_COUNTS",
    "PAPER_SLOT_DURATIONS",
]

PAPER_GROUP_COUNTS: Tuple[int, ...] = tuple(range(2, 21, 2))
PAPER_SLOT_DURATIONS: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def figure9_model(
    slot_duration_s: float = 0.25, group_count: int = 10
) -> OverheadModel:
    """The §5.4 parameterisation: 500-byte packets, 4 Mbps session, 16-bit keys."""
    return OverheadModel(
        data_bits_per_packet=4000,
        cumulative_rate_bps=4_000_000.0,
        minimal_rate_bps=100_000.0,
        key_bits=16,
        slot_number_bits=8,
        fec_expansion=2.0,
        group_count=group_count,
        slot_duration_s=slot_duration_s,
    )


def _peaks(points: List[OverheadPoint]) -> Dict[str, float]:
    """The highest DELTA and SIGMA percentages along one analytic curve."""
    return {
        "max_delta_percent": max(point.delta_percent for point in points),
        "max_sigma_percent": max(point.sigma_percent for point in points),
    }


register_figure("figure9a_overhead_vs_group_count")(
    lambda cells, results: _peaks(figure9_model().sweep_group_count(PAPER_GROUP_COUNTS))
)
register_figure("figure9b_overhead_vs_slot_duration")(
    lambda cells, results: _peaks(figure9_model().sweep_slot_duration(PAPER_SLOT_DURATIONS))
)


# ----------------------------------------------------------------------
# Measured overhead from the full simulator
# ----------------------------------------------------------------------
@register_scenario(
    "figure9-measured-overhead",
    "Figure 9 cross-check: DELTA/SIGMA overhead measured on the wire for one "
    "FLID-DS session",
    dict(duration_s=30.0, bottleneck_bandwidth_bps=None),
    hints={"bottleneck_bandwidth_bps": Optional[float]},
)
def _measured_overhead(
    name: str, duration_s: float, bottleneck_bandwidth_bps: Optional[float]
) -> ScenarioSpec:
    """Declarative form of the measured-overhead FLID-DS session.

    A generous bottleneck keeps the receiver at the maximal level, and
    suppression of unsubscribed groups is disabled, so the full cumulative
    session rate flows — matching the analytic model's denominator.
    """
    if bottleneck_bandwidth_bps is None:
        bottleneck_bandwidth_bps = 2.0 * figure9_model().cumulative_rate_bps
    return ScenarioSpec(
        name=name,
        protected=True,
        topology_params={"bottleneck_bandwidth_bps": bottleneck_bandwidth_bps},
        sessions=(
            SessionDecl(
                "overhead", track_overhead=True, suppress_unsubscribed_groups=False
            ),
        ),
        duration_s=duration_s,
    )


@register_figure(
    "figure9_measured_overhead_matches_model", scenario="figure9-measured-overhead"
)
def _measured_overhead_table(
    cells: Sequence[ScenarioSpec], results: Sequence[RunResult]
) -> Dict[str, Any]:
    """Measured DELTA/SIGMA percentages beside the model of the same session.

    The model takes group count and key width from the cell's session and
    slot length from the cell, so both cover the same groups; packet size
    and rates are the session's defaults.
    """
    (spec,), (result,) = cells, results
    decl = spec.sessions[0]
    session = SessionSpec(decl.session_id, group_count=decl.group_count)
    model = OverheadModel(
        data_bits_per_packet=session.packet_bytes * 8,
        cumulative_rate_bps=session.max_rate_bps(),
        minimal_rate_bps=session.base_rate_bps,
        key_bits=decl.key_bits,
        group_count=decl.group_count,
        slot_duration_s=spec.slot_duration_s,
    )
    measured = result.metrics["multicast"][decl.session_id]["overhead_percent"]
    return {
        "measured_delta_percent": measured["delta"],
        "measured_sigma_percent": measured["sigma"],
        "model_delta_percent": model.delta_overhead_percent(),
        "model_sigma_percent": model.sigma_overhead_percent(),
    }
