"""Figure 9 — communication overhead of DELTA and SIGMA.

Section 5.4 quantifies the cost of the protection as the ratio of protection
bits to data bits, both analytically (the closed-form expressions implemented
in :mod:`repro.core.overhead`) and for a concrete FLID-DS session: 500-byte
packets, 4 Mbps cumulative rate, 100 Kbps minimal group, 16-bit keys, 8-bit
slot numbers and FEC sized for 50 % loss.

Two sweeps are reported:

* Figure 9(a): overhead versus the number of groups (2 to 20) at 250 ms slots;
* Figure 9(b): overhead versus the slot duration (0.2 s to 1 s) with 10 groups.

The paper finds DELTA stays around 0.8 % and SIGMA under 0.6 %.  In addition
to the analytic curves, ``run_measured_overhead`` runs a short FLID-DS session
through the full simulator and reports the overhead actually accumulated on
the wire, so the model and the implementation can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.overhead import OverheadModel, OverheadPoint
from .config import PAPER_DEFAULTS, ExperimentConfig
from .registry import register_scenario
from .spec import ScenarioSpec, SessionDecl
from .warmstart import run_scenario

__all__ = [
    "OverheadSweepResult",
    "MeasuredOverheadResult",
    "figure9_model",
    "measured_overhead_spec",
    "run_group_count_sweep",
    "run_slot_duration_sweep",
    "run_measured_overhead",
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


@dataclass
class OverheadSweepResult:
    """One Figure 9 curve pair (DELTA and SIGMA percentages)."""

    parameter_name: str
    points: List[OverheadPoint] = field(default_factory=list)

    @property
    def max_delta_percent(self) -> float:
        return max(point.delta_percent for point in self.points)

    @property
    def max_sigma_percent(self) -> float:
        return max(point.sigma_percent for point in self.points)


def run_group_count_sweep(
    group_counts: Sequence[int] = PAPER_GROUP_COUNTS, slot_duration_s: float = 0.25
) -> OverheadSweepResult:
    """Figure 9(a): overhead versus the number of groups."""
    model = figure9_model(slot_duration_s=slot_duration_s)
    return OverheadSweepResult(
        parameter_name="groups",
        points=model.sweep_group_count(list(group_counts)),
    )


def run_slot_duration_sweep(
    durations_s: Sequence[float] = PAPER_SLOT_DURATIONS, group_count: int = 10
) -> OverheadSweepResult:
    """Figure 9(b): overhead versus the time-slot duration."""
    model = figure9_model(group_count=group_count)
    return OverheadSweepResult(
        parameter_name="slot duration (s)",
        points=model.sweep_slot_duration(list(durations_s)),
    )


# ----------------------------------------------------------------------
# Measured overhead from the full simulator
# ----------------------------------------------------------------------
def measured_overhead_spec(
    config: Optional[ExperimentConfig] = None,
    duration_s: float = 30.0,
    bottleneck_bps: Optional[float] = None,
) -> ScenarioSpec:
    """Declarative form of the measured-overhead FLID-DS session.

    A generous bottleneck keeps the receiver at the maximal level, and
    suppression of unsubscribed groups is disabled, so the full cumulative
    session rate flows — matching the analytic model's denominator.
    """
    config = config or PAPER_DEFAULTS
    if bottleneck_bps is None:
        bottleneck_bps = 2.0 * figure9_model(slot_duration_s=config.flid_ds_slot_s).cumulative_rate_bps
    return ScenarioSpec(
        name="figure9-measured-overhead",
        protected=True,
        expected_sessions=1,
        bottleneck_bps=bottleneck_bps,
        sessions=(
            SessionDecl(
                "overhead", track_overhead=True, suppress_unsubscribed_groups=False
            ),
        ),
        duration_s=duration_s,
        config=config,
    )


register_scenario(
    "figure9-measured-overhead",
    "Figure 9 cross-check: DELTA/SIGMA overhead measured on the wire for one "
    "FLID-DS session",
)(measured_overhead_spec)


@dataclass
class MeasuredOverheadResult:
    """Overhead measured on the wire for one simulated FLID-DS session."""

    delta_percent: float
    sigma_percent: float
    model_delta_percent: float
    model_sigma_percent: float
    data_bits: int
    duration_s: float

    @property
    def delta_within_factor(self) -> float:
        """Measured / modelled DELTA overhead (1.0 = exact match)."""
        if self.model_delta_percent == 0:
            return float("inf")
        return self.delta_percent / self.model_delta_percent


def run_measured_overhead(
    config: Optional[ExperimentConfig] = None,
    duration_s: float = 30.0,
    group_count: int = 10,
) -> MeasuredOverheadResult:
    """Run a FLID-DS session and compare measured overhead with the model.

    The session uses the §5.4 parameters scaled to a bottleneck large enough
    that every group stays subscribed (the model assumes the full cumulative
    rate is flowing), so the measured per-packet DELTA overhead and per-slot
    SIGMA overhead are directly comparable with the analytic expressions.
    """
    config = config or PAPER_DEFAULTS
    model = figure9_model(slot_duration_s=config.flid_ds_slot_s, group_count=group_count)
    spec = measured_overhead_spec(
        config=config, duration_s=duration_s, bottleneck_bps=2.0 * model.cumulative_rate_bps
    )
    scenario = run_scenario(spec)
    session = scenario.sessions[0]
    overhead = session.overhead
    assert overhead is not None
    delta_pct, sigma_pct = overhead.as_percentages()
    return MeasuredOverheadResult(
        delta_percent=delta_pct,
        sigma_percent=sigma_pct,
        model_delta_percent=OverheadModel(
            data_bits_per_packet=config.packet_bytes * 8,
            cumulative_rate_bps=session.spec.max_rate_bps(),
            minimal_rate_bps=session.spec.base_rate_bps,
            key_bits=config.key_bits,
            group_count=group_count,
            slot_duration_s=config.flid_ds_slot_s,
        ).delta_overhead_percent(),
        model_sigma_percent=OverheadModel(
            data_bits_per_packet=config.packet_bytes * 8,
            cumulative_rate_bps=session.spec.max_rate_bps(),
            minimal_rate_bps=session.spec.base_rate_bps,
            key_bits=config.key_bits,
            group_count=group_count,
            slot_duration_s=config.flid_ds_slot_s,
        ).sigma_overhead_percent(),
        data_bits=overhead.data_bits,
        duration_s=duration_s,
    )
