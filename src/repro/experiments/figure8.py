"""Figure 8 — preservation of FLID-DL's congestion control properties.

Section 5.3 checks that integrating DELTA and SIGMA does not change the
congestion behaviour of the protected protocol.  Each sub-figure is a
separate experiment:

* 8(a)/8(b)/8(c) — individual and average receiver throughput as the number
  of multicast sessions grows from 1 to 18, without cross traffic, for
  FLID-DL and FLID-DS;
* 8(d) — the same comparison with cross traffic (one TCP session per
  multicast session plus an on-off CBR source at 10 % of the bottleneck);
* 8(e) — responsiveness to an 800 Kbps CBR burst between 45 s and 75 s;
* 8(f) — average throughput of 20 receivers whose round-trip times spread
  uniformly between 30 ms and 220 ms;
* 8(g)/8(h) — subscription convergence of 4 receivers joining at 0/10/20/30 s.

Every function runs one protocol variant so the benchmark harness can place
FLID-DL and FLID-DS runs side by side exactly as the paper plots them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.convergence import convergence_time
from ..simulator.monitors import ThroughputSample
from .config import PAPER_DEFAULTS, ExperimentConfig
from .registry import register_scenario
from .runner import ExperimentRunner
from .scenario import Scenario
from .spec import CbrDecl, ScenarioSpec, SessionDecl, TcpDecl
from .warmstart import run_scenario

__all__ = [
    "ThroughputVsSessionsResult",
    "ResponsivenessResult",
    "RttFairnessResult",
    "ConvergenceResult",
    "throughput_vs_sessions_spec",
    "responsiveness_spec",
    "convergence_spec",
    "run_throughput_vs_sessions",
    "run_responsiveness",
    "run_heterogeneous_rtt",
    "run_convergence",
    "PAPER_SESSION_COUNTS",
]

#: Session counts on the x-axis of Figures 8(a)-8(d).
PAPER_SESSION_COUNTS: Tuple[int, ...] = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18)


# ----------------------------------------------------------------------
# Figures 8(a)-8(d): throughput versus the number of sessions
# ----------------------------------------------------------------------
@dataclass
class ThroughputVsSessionsResult:
    """Per-session-count receiver throughput for one protocol variant."""

    protected: bool
    cross_traffic: bool
    fair_share_kbps: float
    #: session count -> list of individual receiver averages (Kbps).
    individual_kbps: Dict[int, List[float]] = field(default_factory=dict)
    #: session count -> average over receivers (Kbps).
    average_kbps: Dict[int, float] = field(default_factory=dict)
    #: session count -> list of TCP averages (only with cross traffic).
    tcp_kbps: Dict[int, List[float]] = field(default_factory=dict)

    def series(self) -> List[Tuple[int, float]]:
        """(session count, average Kbps) points, the paper's average-rate line."""
        return sorted(self.average_kbps.items())


def throughput_vs_sessions_spec(
    protected: bool = False,
    count: int = 4,
    cross_traffic: bool = False,
    config: Optional[ExperimentConfig] = None,
    duration_s: Optional[float] = None,
) -> ScenarioSpec:
    """Declarative form of one Figure 8(a)-(d) point: ``count`` sessions.

    With cross traffic every multicast session is matched by a TCP session,
    all with the same 250 Kbps fair share, plus an on-off CBR source at 10 %
    of the bottleneck.
    """
    config = config or PAPER_DEFAULTS
    competing_sessions = count * 2 if cross_traffic else count
    tcp = tuple(TcpDecl(f"tcp{i + 1}") for i in range(count)) if cross_traffic else ()
    cbr = ()
    if cross_traffic:
        bottleneck_bps = config.fair_share_bps * competing_sessions
        cbr = (CbrDecl("cbr", rate_bps=0.1 * bottleneck_bps, on_s=5.0, off_s=5.0),)
    variant = "ds" if protected else "dl"
    suffix = "-cross" if cross_traffic else ""
    return ScenarioSpec(
        name=f"figure8-throughput-{variant}{suffix}-{count}",
        protected=protected,
        expected_sessions=competing_sessions,
        sessions=tuple(SessionDecl(f"mc{i + 1}") for i in range(count)),
        tcp=tcp,
        cbr=cbr,
        duration_s=duration_s,
        config=config,
    )


register_scenario(
    "figure8-throughput",
    "Figures 8(a)-(d): receiver throughput with N competing sessions "
    "(params: protected, count, cross_traffic)",
)(throughput_vs_sessions_spec)


def run_throughput_vs_sessions(
    protected: bool,
    session_counts: Sequence[int] = PAPER_SESSION_COUNTS,
    cross_traffic: bool = False,
    config: Optional[ExperimentConfig] = None,
    duration_s: Optional[float] = None,
    jobs: int = 1,
    runner: Optional[ExperimentRunner] = None,
) -> ThroughputVsSessionsResult:
    """Run the Figure 8(a)/(b)/(c)/(d) sweep for one protocol variant.

    The per-count experiments are independent, so the sweep fans out over the
    :class:`ExperimentRunner` — ``jobs > 1`` runs them in parallel worker
    processes with results identical to the serial path.
    """
    config = config or PAPER_DEFAULTS
    duration = config.duration_s if duration_s is None else duration_s
    specs = [
        throughput_vs_sessions_spec(
            protected=protected,
            count=count,
            cross_traffic=cross_traffic,
            config=config,
            duration_s=duration,
        )
        for count in session_counts
    ]
    runner = runner or ExperimentRunner(jobs=jobs)
    result = ThroughputVsSessionsResult(
        protected=protected,
        cross_traffic=cross_traffic,
        fair_share_kbps=config.fair_share_bps / 1e3,
    )
    for count, run in zip(session_counts, runner.run(specs)):
        sessions = run.metrics["multicast"]
        individual = [
            sessions[f"mc{i + 1}"]["receiver_kbps"][0] for i in range(count)
        ]
        result.individual_kbps[count] = individual
        result.average_kbps[count] = sum(individual) / len(individual)
        if cross_traffic:
            result.tcp_kbps[count] = [
                run.metrics["tcp_kbps"][f"tcp{i + 1}"] for i in range(count)
            ]
    return result


# ----------------------------------------------------------------------
# Figure 8(e): responsiveness to a CBR burst
# ----------------------------------------------------------------------
@dataclass
class ResponsivenessResult:
    """Throughput time-series of one multicast receiver around a CBR burst."""

    protected: bool
    burst_window: Tuple[float, float]
    burst_rate_kbps: float
    series: List[ThroughputSample] = field(default_factory=list)
    average_before_kbps: float = 0.0
    average_during_kbps: float = 0.0
    average_after_kbps: float = 0.0

    @property
    def yields_to_burst(self) -> bool:
        """Did the multicast session release bandwidth during the burst?"""
        return self.average_during_kbps < self.average_before_kbps

    @property
    def recovers_after_burst(self) -> bool:
        """Did it climb back after the burst ended?"""
        return self.average_after_kbps > 1.2 * self.average_during_kbps


def responsiveness_spec(
    protected: bool = False,
    config: Optional[ExperimentConfig] = None,
    bottleneck_bps: float = 1_000_000.0,
    burst_rate_bps: float = 800_000.0,
    burst_window: Tuple[float, float] = (45.0, 75.0),
    duration_s: float = 110.0,
) -> ScenarioSpec:
    """Declarative form of the Figure 8(e) burst-response experiment."""
    config = config or PAPER_DEFAULTS
    return ScenarioSpec(
        name=f"figure8-responsiveness-{'ds' if protected else 'dl'}",
        protected=protected,
        expected_sessions=1,
        bottleneck_bps=bottleneck_bps,
        sessions=(SessionDecl("mc"),),
        cbr=(
            CbrDecl(
                "burst",
                rate_bps=burst_rate_bps,
                on_s=burst_window[1] - burst_window[0],
                off_s=1.0,
                active_window=burst_window,
            ),
        ),
        duration_s=duration_s,
        config=config,
    )


register_scenario(
    "figure8-responsiveness",
    "Figure 8(e): responsiveness to an 800 Kbps CBR burst between 45 s and 75 s",
)(responsiveness_spec)


def run_responsiveness(
    protected: bool,
    config: Optional[ExperimentConfig] = None,
    bottleneck_bps: float = 1_000_000.0,
    burst_rate_bps: float = 800_000.0,
    burst_window: Tuple[float, float] = (45.0, 75.0),
    duration_s: float = 110.0,
) -> ResponsivenessResult:
    """Run the Figure 8(e) burst-response experiment for one protocol variant."""
    spec = responsiveness_spec(
        protected,
        config=config,
        bottleneck_bps=bottleneck_bps,
        burst_rate_bps=burst_rate_bps,
        burst_window=burst_window,
        duration_s=duration_s,
    )
    config = spec.config
    scenario = run_scenario(spec)
    session = scenario.sessions[0]
    monitor = session.receiver.monitor
    result = ResponsivenessResult(
        protected=protected,
        burst_window=burst_window,
        burst_rate_kbps=burst_rate_bps / 1e3,
        series=monitor.smoothed_series(window_bins=5, end_time_s=duration_s),
        average_before_kbps=monitor.average_rate_kbps(config.warmup_s, burst_window[0]),
        average_during_kbps=monitor.average_rate_kbps(burst_window[0] + 5.0, burst_window[1]),
        average_after_kbps=monitor.average_rate_kbps(burst_window[1] + 10.0, duration_s),
    )
    return result


# ----------------------------------------------------------------------
# Figure 8(f): heterogeneous round-trip times
# ----------------------------------------------------------------------
@dataclass
class RttFairnessResult:
    """Average throughput of receivers with heterogeneous round-trip times."""

    protected: bool
    #: (round-trip time in ms, average throughput in Kbps), one per receiver.
    points: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def spread_ratio(self) -> float:
        """Max/min receiver throughput; close to 1.0 means RTT-independent."""
        rates = [rate for _, rate in self.points if rate > 0]
        if not rates:
            return float("inf")
        return max(rates) / min(rates)


def run_heterogeneous_rtt(
    protected: bool,
    config: Optional[ExperimentConfig] = None,
    receiver_count: int = 20,
    rtt_range_ms: Tuple[float, float] = (30.0, 220.0),
    duration_s: float = 120.0,
) -> RttFairnessResult:
    """Run the Figure 8(f) experiment for one protocol variant.

    The bottleneck propagation delay is 5 ms (as in the paper) and the
    receivers' access-link delays are chosen so their round-trip times spread
    uniformly across ``rtt_range_ms``.
    """
    config = config or PAPER_DEFAULTS
    fixed_one_way_ms = (config.access_delay_s + 0.005) * 1e3  # sender access + bottleneck
    rtts = [
        rtt_range_ms[0] + (rtt_range_ms[1] - rtt_range_ms[0]) * i / max(1, receiver_count - 1)
        for i in range(receiver_count)
    ]
    access_delays = [max(0.0005, (rtt / 2.0 - fixed_one_way_ms) / 1e3) for rtt in rtts]
    spec = ScenarioSpec(
        name=f"figure8-rtt-fairness-{'ds' if protected else 'dl'}",
        protected=protected,
        expected_sessions=1,
        sessions=(
            SessionDecl(
                "mc",
                receivers=receiver_count,
                receiver_access_delays=tuple(access_delays),
            ),
        ),
        duration_s=duration_s,
        config=config,
    )
    scenario = Scenario.from_spec(spec)
    session = scenario.sessions[0]
    # The paper lowers the bottleneck delay to 5 ms for this experiment; the
    # queue stays sized for the default 20 ms path as in the NS-2 setup.
    scenario.network.bottleneck.delay_s = 0.005
    scenario.network.bottleneck_reverse.delay_s = 0.005
    scenario.run(duration_s)
    result = RttFairnessResult(protected=protected)
    for rtt, receiver in zip(rtts, session.receivers):
        result.points.append((rtt, receiver.average_rate_kbps(config.warmup_s, duration_s)))
    return result


# ----------------------------------------------------------------------
# Figures 8(g)/8(h): subscription convergence
# ----------------------------------------------------------------------
@dataclass
class ConvergenceResult:
    """Throughput series and convergence time of staggered receivers."""

    protected: bool
    join_times_s: Tuple[float, ...]
    series: List[List[ThroughputSample]] = field(default_factory=list)
    level_histories: List[List[Tuple[float, int]]] = field(default_factory=list)
    convergence_time_s: Optional[float] = None
    final_levels: List[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.convergence_time_s is not None


def convergence_spec(
    protected: bool = False,
    config: Optional[ExperimentConfig] = None,
    join_times_s: Tuple[float, ...] = (0.0, 10.0, 20.0, 30.0),
    duration_s: float = 40.0,
) -> ScenarioSpec:
    """Declarative form of the Figure 8(g)/(h) staggered-join experiment."""
    config = config or PAPER_DEFAULTS
    return ScenarioSpec(
        name=f"figure8-convergence-{'ds' if protected else 'dl'}",
        protected=protected,
        expected_sessions=1,
        sessions=(
            SessionDecl(
                "mc",
                receivers=len(join_times_s),
                receiver_start_times=tuple(join_times_s),
            ),
        ),
        duration_s=duration_s,
        config=config,
    )


register_scenario(
    "figure8-convergence",
    "Figures 8(g)/(h): subscription convergence of receivers joining at 0/10/20/30 s",
)(convergence_spec)


def run_convergence(
    protected: bool,
    config: Optional[ExperimentConfig] = None,
    join_times_s: Tuple[float, ...] = (0.0, 10.0, 20.0, 30.0),
    duration_s: float = 40.0,
) -> ConvergenceResult:
    """Run the Figure 8(g)/(h) experiment for one protocol variant."""
    spec = convergence_spec(
        protected, config=config, join_times_s=join_times_s, duration_s=duration_s
    )
    config = spec.config
    scenario = run_scenario(spec)
    session = scenario.sessions[0]
    histories = [receiver.level_history for receiver in session.receivers]
    result = ConvergenceResult(
        protected=protected,
        join_times_s=join_times_s,
        series=[
            receiver.monitor.smoothed_series(window_bins=3, end_time_s=duration_s)
            for receiver in session.receivers
        ],
        level_histories=[list(history) for history in histories],
        convergence_time_s=convergence_time(
            histories, start_s=max(join_times_s), end_s=duration_s
        ),
        final_levels=[receiver.level for receiver in session.receivers],
    )
    return result
