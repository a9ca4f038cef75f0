"""Figures 1 and 7 — impact of inflated subscription, with and without protection.

The scenario (§1 and §5.2): receivers ``F1`` and ``F2`` belong to two
different multicast sessions and share a 1 Mbps bottleneck with two TCP Reno
receivers ``T1`` and ``T2``; every flow's fair share is 250 Kbps.  At
``t = 100 s`` receiver ``F1`` starts misbehaving and inflates its
subscription.

* With FLID-DL (Figure 1) the attack succeeds: F1's throughput jumps to
  roughly 690 Kbps while F2, T1 and T2 are squeezed far below their fair
  share.
* With FLID-DS (Figure 7) DELTA and SIGMA deny F1 the keys for the extra
  groups, so all four flows keep roughly their fair share.

``run_inflated_subscription_experiment`` runs either variant and returns the
four per-flow throughput time-series plus before/after averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.fairness import jain_index
from ..simulator.monitors import ThroughputSample
from .config import PAPER_DEFAULTS, ExperimentConfig
from .registry import register_scenario
from .spec import ScenarioSpec, SessionDecl, TcpDecl
from .warmstart import run_scenario

__all__ = [
    "InflatedSubscriptionResult",
    "inflated_subscription_spec",
    "run_inflated_subscription_experiment",
]

#: Time at which F1 starts misbehaving (both figures).
DEFAULT_ATTACK_START_S = 100.0


def inflated_subscription_spec(
    protected: bool,
    config: Optional[ExperimentConfig] = None,
    attack_start_s: float = DEFAULT_ATTACK_START_S,
    duration_s: Optional[float] = None,
) -> ScenarioSpec:
    """Declarative form of the Figure 1 / Figure 7 scenario.

    Four flows (2 multicast + 2 TCP) at a 250 Kbps fair share share a 1 Mbps
    dumbbell bottleneck; multicast receiver F1 turns misbehaving at
    ``attack_start_s``.
    """
    config = config or PAPER_DEFAULTS
    duration = config.duration_s if duration_s is None else duration_s
    attack_start = min(attack_start_s, duration)
    return ScenarioSpec(
        name="figure7-defence" if protected else "figure1-attack",
        protected=protected,
        expected_sessions=4,
        sessions=(
            SessionDecl("F1", receivers=1, misbehaving=(0,), attack_start_s=attack_start),
            SessionDecl("F2", receivers=1),
        ),
        tcp=(TcpDecl("T1"), TcpDecl("T2")),
        duration_s=duration,
        config=config,
    )


register_scenario(
    "figure1-attack",
    "Figure 1: inflated-subscription attack on FLID-DL — F1 squeezes F2/T1/T2",
)(lambda **params: inflated_subscription_spec(protected=False, **params))

register_scenario(
    "figure7-defence",
    "Figure 7: the same attack against FLID-DS — DELTA/SIGMA hold the fair share",
)(lambda **params: inflated_subscription_spec(protected=True, **params))


@dataclass
class InflatedSubscriptionResult:
    """Outcome of one Figure 1 / Figure 7 run."""

    protected: bool
    attack_start_s: float
    duration_s: float
    fair_share_kbps: float
    #: Per-flow 1-second throughput series, keyed by flow name (F1, F2, T1, T2).
    series: Dict[str, List[ThroughputSample]] = field(default_factory=dict)
    #: Average throughput (Kbps) before the attack, keyed by flow name.
    average_before_kbps: Dict[str, float] = field(default_factory=dict)
    #: Average throughput (Kbps) while the attack is active, keyed by flow name.
    average_during_kbps: Dict[str, float] = field(default_factory=dict)

    @property
    def attacker_gain(self) -> float:
        """F1 throughput during the attack relative to its fair share."""
        return self.average_during_kbps["F1"] / self.fair_share_kbps

    @property
    def fairness_before(self) -> float:
        return jain_index(list(self.average_before_kbps.values()))

    @property
    def fairness_during(self) -> float:
        return jain_index(list(self.average_during_kbps.values()))

    def victim_flows(self) -> List[str]:
        return [name for name in self.average_during_kbps if name != "F1"]


def run_inflated_subscription_experiment(
    protected: bool,
    config: Optional[ExperimentConfig] = None,
    attack_start_s: float = DEFAULT_ATTACK_START_S,
    duration_s: Optional[float] = None,
) -> InflatedSubscriptionResult:
    """Run the Figure 1 (``protected=False``) or Figure 7 (``protected=True``) scenario."""
    spec = inflated_subscription_spec(
        protected, config=config, attack_start_s=attack_start_s, duration_s=duration_s
    )
    config = spec.config
    duration = spec.effective_duration_s
    attack_start = min(attack_start_s, duration)

    scenario = run_scenario(spec)
    f1_session, f2_session = scenario.sessions
    t1, t2 = scenario.tcp_connections

    monitors = {
        "F1": f1_session.receiver.monitor,
        "F2": f2_session.receiver.monitor,
        "T1": t1.monitor,
        "T2": t2.monitor,
    }
    result = InflatedSubscriptionResult(
        protected=protected,
        attack_start_s=attack_start,
        duration_s=duration,
        fair_share_kbps=config.fair_share_bps / 1e3,
    )
    warmup = config.warmup_s
    for name, monitor in monitors.items():
        result.series[name] = monitor.smoothed_series(window_bins=5, end_time_s=duration)
        result.average_before_kbps[name] = monitor.average_rate_kbps(warmup, attack_start)
        result.average_during_kbps[name] = monitor.average_rate_kbps(attack_start, duration)
    return result
