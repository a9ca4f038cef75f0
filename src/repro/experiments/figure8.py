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

Every scenario runs one protocol variant; every figure runs both, so its
table places FLID-DL and FLID-DS side by side exactly as the paper plots
them.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from ..analysis.convergence import convergence_time
from ..analysis.fairness import max_min_ratio
from ..simulator.topology import dumbbell_topology
from .registry import register_figure, register_scenario, series_kbps
from .metrics import WARMUP_S, RunResult
from .spec import FAIR_SHARE_BPS, PAPER_DURATION_S, CbrDecl, ScenarioSpec, SessionDecl, TcpDecl

__all__ = ["PAPER_SESSION_COUNTS"]

#: Session counts on the x-axis of Figures 8(a)-8(d).
PAPER_SESSION_COUNTS: Tuple[int, ...] = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18)

#: Every Figure 8 table crosses the two protocol variants; 8(a)-(d) cross
#: them with the session counts, which the ``counts`` axis replaces.
_BOTH = {"protected": (False, True)}
_COUNTS = {**_BOTH, "count": PAPER_SESSION_COUNTS}


def _variant(spec: ScenarioSpec) -> str:
    """The table prefix of a cell's protocol: ``flid_dl`` or ``flid_ds``."""
    return "flid_ds" if spec.protected else "flid_dl"


# ----------------------------------------------------------------------
# Figures 8(a)-8(d): throughput versus the number of sessions
# ----------------------------------------------------------------------
@register_scenario(
    "figure8-throughput",
    "Figures 8(a)-(d): receiver throughput with N competing sessions "
    "(params: protected, count, cross_traffic)",
    dict(protected=False, count=4, cross_traffic=False, duration_s=PAPER_DURATION_S),
)
def _throughput_point(
    name: str, protected: bool, count: int, cross_traffic: bool, duration_s: float
) -> ScenarioSpec:
    """Declarative form of one Figure 8(a)-(d) point: ``count`` sessions.

    With cross traffic every multicast session is matched by a TCP session,
    all with the same 250 Kbps fair share, plus an on-off CBR source at 10 %
    of the bottleneck.
    """
    competing_sessions = count * 2 if cross_traffic else count
    bottleneck = FAIR_SHARE_BPS * competing_sessions
    tcp = tuple(TcpDecl(f"tcp{i + 1}") for i in range(count)) if cross_traffic else ()
    cbr = ()
    if cross_traffic:
        cbr = (CbrDecl("cbr", rate_bps=0.1 * bottleneck, on_s=5.0, off_s=5.0),)
    variant = "ds" if protected else "dl"
    suffix = "-cross" if cross_traffic else ""
    return ScenarioSpec(
        name=f"{name}-{variant}{suffix}-{count}",
        protected=protected,
        topology_params={"bottleneck_bandwidth_bps": bottleneck},
        sessions=tuple(SessionDecl(f"mc{i + 1}") for i in range(count)),
        tcp=tcp,
        cbr=cbr,
        duration_s=duration_s,
    )


@register_figure(
    "figure8abc_throughput_without_cross_traffic",
    scenario="figure8-throughput",
    grid=_COUNTS,
    fixed={"cross_traffic": False},
    grid_axes={"counts": "count"},
)
@register_figure(
    "figure8d_throughput_with_cross_traffic",
    scenario="figure8-throughput",
    grid=_COUNTS,
    fixed={"cross_traffic": True},
    grid_axes={"counts": "count"},
)
def _throughput_table(
    cells: Sequence[ScenarioSpec], results: Sequence[RunResult]
) -> Dict[str, Any]:
    """Per protocol and session count: the average receiver throughput and,
    with cross traffic, every TCP connection's."""
    table: Dict[str, Any] = {}
    for spec, result in zip(cells, results):
        count = len(spec.sessions)
        individual = [
            result.metrics["multicast"][decl.session_id]["receiver_kbps"][0]
            for decl in spec.sessions
        ]
        table.setdefault(f"{_variant(spec)}_avg_kbps", {})[count] = (
            sum(individual) / len(individual)
        )
        if spec.tcp:
            table.setdefault(f"{_variant(spec)}_tcp_kbps", {})[count] = [
                result.metrics["tcp_kbps"][decl.name] for decl in spec.tcp
            ]
    return table


# ----------------------------------------------------------------------
# Figure 8(e): responsiveness to a CBR burst
# ----------------------------------------------------------------------
@register_scenario(
    "figure8-responsiveness",
    "Figure 8(e): responsiveness to an 800 Kbps CBR burst between 45 s and 75 s",
    dict(
        protected=False,
        bottleneck_bandwidth_bps=1_000_000.0,
        burst_rate_bps=800_000.0,
        burst_window=(45.0, 75.0),
        duration_s=110.0,
    ),
    hints={"burst_window": Tuple[float, float]},
)
def _responsiveness(
    name: str,
    protected: bool,
    bottleneck_bandwidth_bps: float,
    burst_rate_bps: float,
    burst_window: Tuple[float, float],
    duration_s: float,
) -> ScenarioSpec:
    """Declarative form of the Figure 8(e) burst-response experiment."""
    return ScenarioSpec(
        name=f"{name}-{'ds' if protected else 'dl'}",
        protected=protected,
        topology_params={"bottleneck_bandwidth_bps": bottleneck_bandwidth_bps},
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
    )


@register_figure("figure8e_responsiveness", scenario="figure8-responsiveness", grid=_BOTH)
def _responsiveness_table(
    cells: Sequence[ScenarioSpec], results: Sequence[RunResult]
) -> Dict[str, Any]:
    """Per protocol: the receiver's average before, during and after the burst.

    The during window starts 5 s into the burst and the after window 10 s
    past it, so each average is of the settled rate.
    """
    table: Dict[str, Any] = {}
    for spec, result in zip(cells, results):
        bins = result.metrics["multicast"]["mc"]["series"]["bins"][0]
        start, end = spec.cbr[0].active_window
        table[f"{_variant(spec)}_kbps"] = {
            "before": series_kbps(bins, WARMUP_S, start),
            "during": series_kbps(bins, start + 5.0, end),
            "after": series_kbps(bins, end + 10.0, spec.duration_s),
        }
    return table


# ----------------------------------------------------------------------
# Figure 8(f): heterogeneous round-trip times
# ----------------------------------------------------------------------
@register_scenario(
    "figure8-rtt-fairness",
    "Figure 8(f): throughput of receivers whose round-trip times spread 30-220 ms",
    dict(protected=False, receiver_count=20, rtt_range_ms=(30.0, 220.0), duration_s=120.0),
    hints={"rtt_range_ms": Tuple[float, float]},
)
def _rtt_fairness(
    name: str,
    protected: bool,
    receiver_count: int,
    rtt_range_ms: Tuple[float, float],
    duration_s: float,
) -> ScenarioSpec:
    """Declarative form of the Figure 8(f) heterogeneous-RTT experiment.

    The bottleneck propagation delay is 5 ms (as in the paper) and the
    receivers' access-link delays are chosen so their round-trip times spread
    uniformly across ``rtt_range_ms``.
    """
    # The queue keeps its size for the default 20 ms bottleneck, as in the
    # NS-2 setup: at 250 Kbps both paths' 2-BDP buffers fall to the
    # dumbbell's 4-packet floor.
    topology_params = dict(bottleneck_bandwidth_bps=FAIR_SHARE_BPS, bottleneck_delay_s=0.005)
    topology = dumbbell_topology(**topology_params)
    fixed_one_way_ms = (topology.access_delay_s + topology.links[0].delay_s) * 1e3
    rtts = [
        rtt_range_ms[0] + (rtt_range_ms[1] - rtt_range_ms[0]) * i / max(1, receiver_count - 1)
        for i in range(receiver_count)
    ]
    return ScenarioSpec(
        name=f"{name}-{'ds' if protected else 'dl'}",
        protected=protected,
        topology_params=topology_params,
        sessions=(
            SessionDecl(
                "mc",
                receivers=receiver_count,
                receiver_access_delays=tuple(
                    max(0.0005, (rtt / 2.0 - fixed_one_way_ms) / 1e3) for rtt in rtts
                ),
            ),
        ),
        duration_s=duration_s,
    )


@register_figure("figure8f_heterogeneous_rtt", scenario="figure8-rtt-fairness", grid=_BOTH)
def _rtt_fairness_table(
    cells: Sequence[ScenarioSpec], results: Sequence[RunResult]
) -> Dict[str, Any]:
    """Per protocol: max/min receiver throughput (1.0 = RTT-independent)."""
    return {
        f"{_variant(spec)}_spread_ratio": max_min_ratio(
            result.metrics["multicast"]["mc"]["receiver_kbps"]
        )
        for spec, result in zip(cells, results)
    }


# ----------------------------------------------------------------------
# Figures 8(g)/8(h): subscription convergence
# ----------------------------------------------------------------------
@register_scenario(
    "figure8-convergence",
    "Figures 8(g)/(h): subscription convergence of receivers joining at 0/10/20/30 s",
    dict(protected=False, join_times_s=(0.0, 10.0, 20.0, 30.0), duration_s=40.0),
    hints={"join_times_s": Tuple[float, ...]},
)
def _convergence(
    name: str, protected: bool, join_times_s: Tuple[float, ...], duration_s: float
) -> ScenarioSpec:
    """Declarative form of the Figure 8(g)/(h) staggered-join experiment."""
    return ScenarioSpec(
        name=f"{name}-{'ds' if protected else 'dl'}",
        protected=protected,
        topology_params={"bottleneck_bandwidth_bps": FAIR_SHARE_BPS},
        sessions=(
            SessionDecl(
                "mc",
                receivers=len(join_times_s),
                receiver_start_times=tuple(join_times_s),
            ),
        ),
        duration_s=duration_s,
    )


@register_figure("figure8gh_convergence", scenario="figure8-convergence", grid=_BOTH)
def _convergence_table(
    cells: Sequence[ScenarioSpec], results: Sequence[RunResult]
) -> Dict[str, Any]:
    """Per protocol: the final levels and when the levels converged after the
    last join (``None``: not within the run)."""
    table: Dict[str, Any] = {}
    for spec, result in zip(cells, results):
        session = result.metrics["multicast"]["mc"]
        table[_variant(spec)] = {
            "final_levels": session["final_levels"],
            "convergence_time_s": convergence_time(
                session["series"]["levels"],
                start_s=max(spec.sessions[0].receiver_start_times),
                end_s=spec.duration_s,
            ),
        }
    return table
