"""Protection metrics: did SIGMA/DELTA contain an attack, and how fast?

Two quantities summarise the paper's §5.2 claim for any attack scenario:

* **excess goodput** — the attacker's goodput during the attack window minus
  the honest baseline (the mean goodput honest multicast receivers achieved
  over the same window).  Unprotected Figure 1 shows a large positive
  excess; a protected run should hold it near zero.
* **time to containment** — how long after the attack onset the attacker's
  subscription level returns to (and stays within) its honest entitlement.
  ``0.0`` means the attack never lifted the subscription above the bound;
  ``None`` means it was never contained (the Figure 1 outcome).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "weighted_honest_baseline_kbps",
    "excess_goodput_kbps",
    "weighted_excess_goodput_kbps",
    "time_to_containment_s",
    "goodput_containment_s",
    "combined_containment_s",
]


def weighted_honest_baseline_kbps(
    rates_and_weights_kbps: Sequence[Tuple[float, int]], fallback_kbps: float
) -> float:
    """Population-weighted honest baseline.

    Each ``(rate, weight)`` pair is one receiver *model*: an individual
    receiver weighs 1 and a cohort weighs its member count, so the baseline
    is the mean goodput over *end systems* rather than over receiver
    objects.  With unit weights it is the plain mean — bit for bit
    (``rate * 1`` is exact in IEEE arithmetic) — which keeps every
    pre-population protection metric byte-identical.
    """
    pairs = list(rates_and_weights_kbps)
    if not pairs:
        return fallback_kbps
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        return fallback_kbps
    return sum(rate * weight for rate, weight in pairs) / total


def excess_goodput_kbps(attacker_kbps: float, baseline_kbps: float) -> float:
    """Attacker goodput beyond the honest baseline (positive = attack pays)."""
    return attacker_kbps - baseline_kbps


def weighted_excess_goodput_kbps(
    attacker_kbps: float, baseline_kbps: float, population: int
) -> float:
    """Population-weighted excess: what the whole attacker cohort extracted.

    An adversarial cohort of ``population`` members whose per-member goodput
    beats the honest baseline by ``x`` Kbps has pulled ``population * x``
    Kbps of aggregate bandwidth away from honest receivers — the quantity
    the paper's containment claim bounds as audiences scale.  With
    ``population == 1`` this reduces exactly to
    :func:`excess_goodput_kbps` (``x * 1`` is exact in IEEE arithmetic).
    """
    return excess_goodput_kbps(attacker_kbps, baseline_kbps) * population


def time_to_containment_s(
    level_history: Sequence[Tuple[float, int]],
    onset_s: float,
    bound_level: int,
    end_s: float,
) -> Optional[float]:
    """Seconds from attack onset until the subscription is contained for good.

    ``level_history`` is the receiver's ``(time, level)`` transition list
    (levels persist until the next entry).  Containment is the earliest time
    ``t >= onset_s`` from which the level stays ``<= bound_level`` through
    ``end_s``; returns ``t - onset_s``, or ``None`` when the level still
    exceeds the bound at the end of the run.
    """
    level_at_onset = 0
    transitions: List[Tuple[float, int]] = []
    for time_s, level in level_history:
        if time_s <= onset_s:
            level_at_onset = level
        elif time_s <= end_s:
            transitions.append((time_s, level))

    contained_since: Optional[float] = None if level_at_onset > bound_level else onset_s
    for time_s, level in transitions:
        if level > bound_level:
            contained_since = None
        elif contained_since is None:
            contained_since = time_s
    if contained_since is None:
        return None
    return contained_since - onset_s


def goodput_containment_s(
    rate_series_kbps: Sequence[Tuple[float, float]],
    onset_s: float,
    bound_kbps: float,
    end_s: float,
) -> Optional[float]:
    """Containment as *delivered*: when the goodput drops under the bound.

    Same fixed-point semantics as :func:`time_to_containment_s`, applied to
    a ``(bin end time, Kbps)`` throughput series against the rate the honest
    entitlement corresponds to.  This is the SIGMA-side view: a misbehaving
    receiver may *claim* an inflated subscription forever, but once the edge
    router stops forwarding the extra groups its delivered rate is bounded.
    """
    contained_since: Optional[float] = onset_s
    for time_s, rate_kbps in rate_series_kbps:
        if time_s <= onset_s or time_s > end_s:
            continue
        if rate_kbps > bound_kbps:
            contained_since = None
        elif contained_since is None:
            contained_since = time_s
    if contained_since is None:
        return None
    return contained_since - onset_s


def combined_containment_s(
    level_containment: Optional[float], goodput_containment: Optional[float]
) -> Optional[float]:
    """An attack is contained when *either* view says so (earliest wins).

    The receiver-side view (subscription intent) catches attackers the
    protocol talks back into line; the network-side view (delivered rate)
    catches attackers that keep claiming inflated subscriptions the router
    no longer honours.
    """
    candidates = [c for c in (level_containment, goodput_containment) if c is not None]
    return min(candidates) if candidates else None
