"""Metric assembly: what a finished run measures, and how runs become one result.

Every cell — ordinary, warm-started or region-sharded — ends here.
:func:`collect_ingredients` measures a finished run into plain JSON, and
:func:`assemble` turns one such document (:func:`collect_metrics`) or one per
region (:func:`~repro.experiments.shard.merge_region_results`) into the
metric document of a :class:`RunResult`, byte-deterministic across the serial
and pooled paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.protection import (
    combined_containment_s,
    excess_goodput_kbps,
    goodput_containment_s,
    time_to_containment_s,
    weighted_excess_goodput_kbps,
    weighted_honest_baseline_kbps,
)
from .scenario import Scenario
from .spec import FAIR_SHARE_BPS, PlainData, ScenarioSpec

__all__ = [
    "RunResult",
    "WARMUP_S",
    "assemble",
    "attack_onsets",
    "collect_ingredients",
    "collect_metrics",
]

#: The start-up transient left out of every goodput (§5.1): receivers are
#: measured over ``[WARMUP_S, duration]``.
WARMUP_S = 5.0


@dataclass(frozen=True)
class RunResult(PlainData):
    """Outcome of one spec execution, as plain JSON-serialisable data.

    Serialises through the declarations' codec
    (:class:`~repro.experiments.spec.PlainData`): ``to_dict``/``to_json``
    and the type-checked ``from_dict``/``from_json``.
    """

    scenario: str
    seed: int
    protected: bool
    duration_s: float
    metrics: Dict[str, Any]

    @classmethod
    def for_spec(cls, spec: ScenarioSpec, metrics: Dict[str, Any]) -> "RunResult":
        """The result of running ``spec`` to its end, given its metrics."""
        return cls(
            scenario=spec.name,
            seed=spec.seed,
            protected=spec.protected,
            duration_s=spec.duration_s,
            metrics=metrics,
        )


# ----------------------------------------------------------------------
# metric assembly: extract ingredients per run, assemble once per cell
# ----------------------------------------------------------------------
def attack_onsets(spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
    """The protection windows of ``spec``, or ``None`` without attackers.

    ``{"global": earliest onset, "sessions": {session id: onset}}``.
    Sessions whose attack never starts within the run contribute nothing: a
    clamped zero-width window would fabricate "contained in 0.0 s" results.
    Always computed from the *whole* spec — a region sub-spec may omit
    sessions, which would shift the global onset.
    """
    duration = spec.duration_s
    session_onsets = {
        decl.session_id: onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None and onset < duration
    }
    if not session_onsets:
        return None
    return {"global": min(session_onsets.values()), "sessions": session_onsets}


def _attacker_record(
    receiver: Any,
    members: int,
    onset: float,
    bound_level: int,
    bound_kbps: float,
    duration: float,
    from_population: bool,
) -> Dict[str, Any]:
    """What one attacking row of ``members`` members contributes to the
    protection block.

    Everything except the excess fields, which need the honest baseline
    only :func:`assemble` can compute.  Attackers from a population block
    (and only they) carry their ``population``.  Every attack counter is
    booked at the receiver's member weight, so a row that is one edge's
    share of a receiver standing for a class of interchangeable edges
    reports that share of each counter.
    """
    rate_series = [
        (sample.time_s, sample.rate_kbps)
        for sample in receiver.monitor.series(end_time_s=duration)
    ]
    counters = receiver.adversary_stats()
    if members != receiver.population:
        counters = {
            key: value // receiver.population * members for key, value in counters.items()
        }
    record: Dict[str, Any] = {
        "goodput_kbps": receiver.average_rate_kbps(onset, duration),
        "containment_s": combined_containment_s(
            time_to_containment_s(receiver.level_history, onset, bound_level, duration),
            goodput_containment_s(rate_series, onset, bound_kbps, duration),
        ),
        "bound_level": bound_level,
        "counters": counters,
    }
    if from_population:
        record["population"] = members
    return record


def collect_ingredients(
    scenario: Scenario, spec: ScenarioSpec, onsets: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Measure a finished run into the plain-JSON ingredients of its metrics.

    Everything that needs the live scenario is read here; what needs more
    than one run (a region sees only its own receivers) is left to
    :func:`assemble`.  Per session, group 0 holds the individual receivers
    and group ``i + 1`` the rows of population block ``i`` (one per row of
    a cohort-model block's split, one per receiver otherwise); each group
    is a set of per-row columns: goodput over ``[WARMUP_S, duration]``,
    final level, population and, given ``onsets``, a ``protection`` column
    — an honest row's goodput over the global attack window (a term of the
    honest baseline), an attacker's :func:`_attacker_record`, or ``None``
    for an attacker whose session's attack never starts within the run.
    Whole-session extras (``overhead_percent``, ``series``), ``tcp_kbps``
    and the summed SIGMA counters ride along.  With ``spec.record_series`` a session's ``series``
    holds every row's raw 1-second ``(bin, bytes)`` counts
    (:meth:`~repro.simulator.monitors.ThroughputMonitor.bins`) and
    ``(time, level)`` history, and ``tcp_series`` every connection's bins.
    """
    duration = spec.duration_s
    sessions: List[Dict[str, Any]] = []
    for decl, session in zip(spec.sessions, scenario.sessions):
        onset = onsets["sessions"].get(decl.session_id) if onsets else None
        bound_level = session.spec.fair_level(FAIR_SHARE_BPS)
        #: Delivered-rate bound: the honest entitlement's cumulative rate,
        #: with slack for 1-second bin jitter around slot boundaries.
        bound_kbps = 1.25 * session.spec.cumulative_rate_bps(bound_level) / 1e3

        # Group members come from the session's ``declared`` hosts: a
        # receiver carrying a class of interchangeable edges is reported
        # once per edge, with that edge's rows.
        attackers = set(decl.attacker_indices())
        groups: List[Dict[str, Any]] = []
        reported: List[Tuple[Any, int]] = []  # (receiver, members) per row
        for g_index, members in enumerate(session.declared):
            per_row = g_index > 0 and decl.population[g_index - 1].model == "cohort"
            rows = [
                (receiver, count)
                for receiver, own in members
                for counts in [receiver.counts if own is None else own]
                for count in (counts if per_row else (sum(counts),))
            ]
            reported.extend(rows)
            group: Dict[str, Any] = {
                "receiver_kbps": [
                    receiver.average_rate_kbps(WARMUP_S, duration) for receiver, _ in rows
                ],
                "final_levels": [receiver.level for receiver, _ in rows],
                "population": [count for _, count in rows],
            }
            if onsets is not None:
                block_attacks = (
                    g_index > 0 and decl.population[g_index - 1].attack is not None
                )
                column: List[Any] = []
                for index, (receiver, count) in enumerate(rows):
                    if not (block_attacks or (g_index == 0 and index in attackers)):
                        column.append(
                            receiver.average_rate_kbps(onsets["global"], duration)
                        )
                    elif onset is None:
                        column.append(None)
                    else:
                        column.append(
                            _attacker_record(
                                receiver, count, onset, bound_level, bound_kbps,
                                duration, from_population=g_index > 0,
                            )
                        )
                group["protection"] = column
            groups.append(group)
        entry: Dict[str, Any] = {"session_id": decl.session_id, "groups": groups}
        if session.overhead is not None:
            delta_pct, sigma_pct = session.overhead.as_percentages()
            entry["overhead_percent"] = {"delta": delta_pct, "sigma": sigma_pct}
        if spec.record_series:
            entry["series"] = {
                "bins": [receiver.monitor.bins() for receiver, _ in reported],
                "levels": [list(receiver.level_history) for receiver, _ in reported],
            }
        sessions.append(entry)
    document: Dict[str, Any] = {"sessions": sessions}
    if spec.tcp:
        document["tcp_kbps"] = {
            decl.name: connection.monitor.average_rate_kbps(WARMUP_S, duration)
            for decl, connection in zip(spec.tcp, scenario.tcp_connections)
        }
        if spec.record_series:
            document["tcp_series"] = {
                decl.name: connection.monitor.bins()
                for decl, connection in zip(spec.tcp, scenario.tcp_connections)
            }
    agents = scenario.sigma_agents
    if agents:
        # An agent on a class of interchangeable edges books every
        # member-weighted counter of the class; its per-agent ones count
        # once per edge.
        edges = [
            len(scenario.edge_classes.get(a.router.name, (a.router.name,))) for a in agents
        ]
        document["sigma"] = {
            "valid_submissions": sum(a.valid_submissions for a in agents),
            "invalid_submissions": sum(a.invalid_submissions for a in agents),
            "revocations": sum(a.revocations for a in agents),
            "igmp_joins_ignored": sum(a.igmp_joins_ignored for a in agents),
            "guess_alarms": sum(a.guess_alarms * n for a, n in zip(agents, edges)),
            "edge_agents": sum(edges),
        }
    return document


def assemble(
    spec: ScenarioSpec,
    onsets: Optional[Dict[str, Any]],
    documents: Sequence[Mapping[str, Any]],
    layouts: Sequence[Sequence[Tuple[int, Sequence[int]]]],
) -> Dict[str, Any]:
    """Turn :func:`collect_ingredients` documents into the metric document.

    ``documents`` are the runs that together realise ``spec`` — one for an
    ordinary run, one per region for a sharded one.  ``layouts[i]`` maps
    document ``i`` onto the spec: per session document, the spec's session
    index and the spec's block index of each of its blocks.  Per-receiver
    lists are reassembled in the receiver index order of the single-process
    run (group-major, document-major within a group) and every float
    reduction is computed in that order, so where regional physics is
    decoupled N documents assemble to the floats of one, term for term.

    Per multicast session: per-receiver goodput, its mean, final levels
    and, for sessions declaring cohorts, the population-weighted view.  The
    ``protection`` block (attack scenarios only) adds to each attacker
    record its excess over the honest baseline — the mean goodput of every
    non-attacking receiver over the earliest attack window, individuals
    weighing 1 and a cohort its member count — and, for attackers from
    population blocks, the weighted excess.  SIGMA counters are summed.
    """
    # session index -> (its session documents, group index -> group documents)
    collected: Dict[int, Tuple[List[Any], Dict[int, List[Any]]]] = {}
    for document, layout in zip(documents, layouts):
        for (s_index, block_indices), session in zip(layout, document["sessions"]):
            session_docs, groups = collected.setdefault(s_index, ([], {}))
            session_docs.append(session)
            group_indices = (0, *(b_index + 1 for b_index in block_indices))
            for g_index, group in zip(group_indices, session["groups"]):
                groups.setdefault(g_index, []).append(group)

    metrics: Dict[str, Any] = {"multicast": {}}
    honest: List[Tuple[float, int]] = []
    # session id -> receiver index -> attacker record
    attackers: Dict[str, Dict[int, Any]] = {}
    for s_index, decl in enumerate(spec.sessions):
        session_docs, groups = collected.get(s_index, ([], {}))
        receiver_kbps: List[float] = []
        final_levels: List[int] = []
        populations: List[int] = []
        protection: List[Any] = []
        for g_index in range(len(decl.population) + 1):
            for group in groups.get(g_index, ()):
                receiver_kbps.extend(group["receiver_kbps"])
                final_levels.extend(group["final_levels"])
                populations.extend(group["population"])
                protection.extend(group.get("protection", ()))
        entry: Dict[str, Any] = {
            "receiver_kbps": receiver_kbps,
            "average_kbps": sum(receiver_kbps) / len(receiver_kbps),
            "final_levels": final_levels,
        }
        if decl.population:
            # Population-weighted view, present only for sessions that
            # declare cohorts (keeps legacy metric documents byte-identical).
            total = sum(populations)
            entry["receiver_population"] = populations
            entry["population"] = total
            entry["weighted_average_kbps"] = (
                sum(rate * count for rate, count in zip(receiver_kbps, populations))
                / total
            )
        for session in session_docs:
            for extra in ("overhead_percent", "series"):
                if extra in session:
                    entry[extra] = session[extra]
        metrics["multicast"][decl.session_id] = entry
        for index, (item, population) in enumerate(zip(protection, populations)):
            if isinstance(item, dict):
                attackers.setdefault(decl.session_id, {})[index] = item
            elif item is not None:
                honest.append((item, population))

    for document in documents:
        for extra in ("tcp_kbps", "tcp_series"):
            if extra in document:
                metrics[extra] = document[extra]
    sigma = [document["sigma"] for document in documents if "sigma" in document]
    if sigma:
        metrics["sigma"] = {key: sum(doc[key] for doc in sigma) for key in sigma[0]}

    if onsets is not None:
        baseline = weighted_honest_baseline_kbps(honest, FAIR_SHARE_BPS / 1e3)
        sessions: Dict[str, Any] = {}
        for session_id, records in attackers.items():
            entries: Dict[str, Any] = {}
            for index, record in records.items():
                goodput = record["goodput_kbps"]
                entries[str(index)] = {
                    **record,
                    "excess_kbps": excess_goodput_kbps(goodput, baseline),
                }
                if "population" in record:
                    # Cohort attackers report the population-weighted view;
                    # individual attackers keep their historical shape.
                    entries[str(index)]["weighted_excess_kbps"] = (
                        weighted_excess_goodput_kbps(
                            goodput, baseline, record["population"]
                        )
                    )
            sessions[session_id] = {
                "onset_s": onsets["sessions"][session_id],
                "attackers": entries,
            }
        metrics["protection"] = {"honest_baseline_kbps": baseline, "sessions": sessions}
    return metrics


def collect_metrics(scenario: Scenario, spec: ScenarioSpec) -> Dict[str, Any]:
    """Measure a finished scenario into plain JSON data.

    An ordinary run is the one-document case of :func:`assemble` (which
    documents the metric schema): its own ingredients, mapped onto the spec
    one to one, with no JSON hop in between.
    """
    onsets = attack_onsets(spec)
    layout = [
        (s_index, range(len(decl.population)))
        for s_index, decl in enumerate(spec.sessions)
    ]
    document = collect_ingredients(scenario, spec, onsets)
    return assemble(spec, onsets, [document], [layout])
