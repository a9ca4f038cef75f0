"""Cohort population churn: deterministic arrival/departure processes.

A :class:`ChurnProcess` describes how a cohort's membership evolves over the
session — continuous arrival/departure rates plus discrete *bursts* (the
flash-crowd case: the audience jumps from hundreds to a hundred thousand
members mid-session).  The process is **pure and deterministic**: population
is a closed-form function of elapsed time, with no random draws, so churned
scenarios keep the byte-determinism contract (``docs/determinism.md``)
across repeated runs and the serial-vs-pool runner paths.

The receivers (:mod:`repro.multicast_cc.receiver_base`) sample the process
at slot-evaluation boundaries and book the membership delta through
member-weighted IGMP/SIGMA messages — see ``docs/scale.md`` for the exact
accounting semantics (arrivals adopt the cohort's current subscription
level; departures are booked as weighted IGMP leaves on the unprotected
variant and are silent under SIGMA, exactly like an individual receiver
that stops submitting keys behind a still-active interface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["ChurnProcess"]


@dataclass(frozen=True)
class ChurnProcess:
    """Deterministic membership dynamics of one cohort.

    ``arrival_rate`` / ``departure_rate`` are members per second, integrated
    (and floored) over the time since the cohort joined; ``burst`` is a
    tuple of ``(elapsed_s, member_delta)`` steps applied once their time has
    passed — a positive delta is a flash crowd, a negative one a mass
    departure.  Population never drops below one member (a cohort host
    cannot stand for an empty population).
    """

    arrival_rate: float = 0.0
    departure_rate: float = 0.0
    burst: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        # ``json.loads`` reads ``Infinity`` and ``NaN``: either would fail
        # the population arithmetic mid-run.
        for name in ("arrival_rate", "departure_rate"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(
                    f"ChurnProcess.{name} must be a finite number of members per "
                    f"second >= 0, got {rate!r}"
                )
        object.__setattr__(
            self, "burst", tuple((float(t), int(d)) for t, d in self.burst)
        )
        for time_s, _delta in self.burst:
            if not (math.isfinite(time_s) and time_s >= 0):
                raise ValueError(
                    f"ChurnProcess.burst times must be finite numbers of seconds "
                    f">= 0, got {time_s!r}"
                )

    # ------------------------------------------------------------------
    def population_at(self, initial: int, elapsed_s: float) -> int:
        """Cohort population ``elapsed_s`` seconds after it joined.

        Closed-form and order-independent: rates are integrated from zero
        and every burst whose time has passed is applied, so sampling the
        process at any boundary sequence yields the same trajectory.
        """
        if elapsed_s < 0:
            return max(1, initial)
        population = initial
        population += math.floor(self.arrival_rate * elapsed_s)
        population -= math.floor(self.departure_rate * elapsed_s)
        population += sum(delta for time_s, delta in self.burst if time_s <= elapsed_s)
        return max(1, population)
