"""Experimental settings of §5.1.

Unless an experiment overrides them, the settings are exactly the paper's:

* single-bottleneck topology; every session's path is three links with the
  bottleneck in the middle;
* fair share of 250 Kbps per session (the bottleneck capacity is the fair
  share times the number of flows crossing it);
* bottleneck propagation delay 20 ms; access links 10 Mbps with 10 ms delay;
* buffers of two bandwidth-delay products;
* 10 groups per multicast session, 100 Kbps minimal group, cumulative rate
  growing by a factor of 1.5 per group;
* 500 ms FLID-DL slots and 250 ms FLID-DS slots (same control granularity,
  because SIGMA enforces access with a responsiveness of two slots);
* 576-byte data packets;
* 200-second experiments (``ScenarioSpec.duration_s``, not a config knob).

The link settings are the defaults of the ``dumbbell`` factory
(:func:`~repro.simulator.topology.dumbbell_topology`), overridden through a
scenario's ``topology_params``; the config keeps only the fair share the
builders size bottlenecks from.

A config is checked when it is declared, so a spec no run could finish is
refused before one starts: counts are integers (never booleans), rates,
sizes and slots finite and positive, the warm-up finite and
non-negative, ``rate_factor`` at least 1, ``key_bits`` at most
:data:`MAX_KEY_BITS` and ``group_count`` at most :data:`MAX_GROUP_COUNT`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..multicast_cc.session import SessionSpec

__all__ = ["ExperimentConfig", "PAPER_DEFAULTS"]

#: The largest group count the paper evaluates (Figure 9(a)); a run's cost
#: grows about fivefold per four groups beyond it.
MAX_GROUP_COUNT = 20

#: The widest key every FEC symbol can carry: keys stay below the field
#: prime 2^61 - 1 (:mod:`repro.fec.erasure`).
MAX_KEY_BITS = 60


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the §5 evaluation scenarios."""

    fair_share_bps: float = 250_000.0

    group_count: int = 10
    base_rate_bps: float = 100_000.0
    rate_factor: float = 1.5
    packet_bytes: int = 576
    flid_dl_slot_s: float = 0.5
    flid_ds_slot_s: float = 0.25
    key_bits: int = 16

    warmup_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        """Refuse, when declared, every value a run would fail on or hang at."""
        for name, high in (
            ("group_count", MAX_GROUP_COUNT),
            ("packet_bytes", math.inf),
            ("key_bits", MAX_KEY_BITS),
            ("seed", None),
        ):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or (high is not None and not 1 <= value <= high)
            ):
                bound = "" if high is None else f" in 1..{high}"
                raise ValueError(
                    f"ExperimentConfig.{name} must be an integer{bound}, got {value!r}"
                )
        for name, low, strict in (
            ("fair_share_bps", 0.0, True),
            ("base_rate_bps", 0.0, True),
            ("rate_factor", 1.0, False),
            ("flid_dl_slot_s", 0.0, True),
            ("flid_ds_slot_s", 0.0, True),
            ("warmup_s", 0.0, False),
        ):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or not (value > low if strict else value >= low)
            ):
                bound = f"> {low:g}" if strict else f">= {low:g}"
                raise ValueError(
                    f"ExperimentConfig.{name} must be a finite number {bound}, got {value!r}"
                )

    def slot_s(self, protected: bool) -> float:
        """Slot length of the protocol a run uses: FLID-DS if ``protected``, else FLID-DL."""
        return self.flid_ds_slot_s if protected else self.flid_dl_slot_s

    def session_spec(self, session_id: str, protected: bool) -> SessionSpec:
        """Session description for one FLID-DL (unprotected) or FLID-DS session."""
        return SessionSpec(
            session_id=session_id,
            group_count=self.group_count,
            base_rate_bps=self.base_rate_bps,
            rate_factor=self.rate_factor,
            packet_bytes=self.packet_bytes,
            slot_duration_s=self.slot_s(protected),
        )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


#: The configuration used throughout the paper's §5 unless stated otherwise.
PAPER_DEFAULTS = ExperimentConfig()
