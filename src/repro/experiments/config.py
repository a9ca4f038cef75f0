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
* 200-second experiments.

The link settings are the defaults of the ``dumbbell`` factory
(:func:`~repro.simulator.topology.dumbbell_topology`), overridden through a
scenario's ``topology_params``; the config keeps only the fair share the
builders size bottlenecks from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..multicast_cc.session import SessionSpec

__all__ = ["ExperimentConfig", "PAPER_DEFAULTS"]


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

    duration_s: float = 200.0
    warmup_s: float = 5.0
    seed: int = 0

    def session_spec(self, session_id: str, protected: bool) -> SessionSpec:
        """Session description for one FLID-DL (unprotected) or FLID-DS session."""
        return SessionSpec(
            session_id=session_id,
            group_count=self.group_count,
            base_rate_bps=self.base_rate_bps,
            rate_factor=self.rate_factor,
            packet_bytes=self.packet_bytes,
            slot_duration_s=self.flid_ds_slot_s if protected else self.flid_dl_slot_s,
        )

    def with_duration(self, duration_s: float) -> "ExperimentConfig":
        """Copy with a different experiment length (used by fast benchmarks)."""
        return replace(self, duration_s=duration_s)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


#: The configuration used throughout the paper's §5 unless stated otherwise.
PAPER_DEFAULTS = ExperimentConfig()
