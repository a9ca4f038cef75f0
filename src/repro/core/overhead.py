"""Analytic communication-overhead model (§5.4).

The paper derives closed-form expressions for the overhead of communicating
group keys:

* **DELTA** adds a ``b``-bit component field to every packet and a ``b``-bit
  decrease field to every packet of groups ``2..N``.  Relative to the data
  bits this is::

      O_delta = (2 - 1/m^(N-1)) * b / s

  where ``m`` is the multiplicative rate factor per group, ``N`` the number
  of groups and ``s`` the data bits per packet.

* **SIGMA** sends, per time slot, special packets carrying an ``l``-bit slot
  number and one address-key tuple per group (32-bit address + ``b``-bit top
  key, plus a ``b``-bit decrease key for all but the last group, plus a
  ``b``-bit increase key for each group whose upgrade is authorised with
  frequency ``f_g``), expanded by the FEC factor ``z`` and framed with ``h``
  header bits::

      O_sigma = ((l + 32N + b(2N - 1 + sum_g f_g)) * z + h) / (r * t * m^(N-1))

  where ``r`` is the minimal group's rate (bps), ``t`` the slot duration and
  ``r * t * m^(N-1)`` therefore the data bits the whole session transmits per
  slot.

``OverheadModel`` evaluates both expressions with the paper's Figure 9
parameters as defaults, and the Figure 9 benchmark compares them against the
overhead *measured* from the packets the FLID-DS implementation actually
emits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

__all__ = ["OverheadModel", "OverheadPoint", "FIGURE9_DEFAULTS"]


@dataclass(frozen=True)
class OverheadPoint:
    """One point of a Figure 9 curve."""

    parameter: float
    delta_percent: float
    sigma_percent: float


@dataclass(frozen=True)
class OverheadModel:
    """Parameters of the §5.4 overhead analysis.

    Defaults follow the paper's quantification: 500-byte data packets
    (``s = 4000`` bits), cumulative session rate 4 Mbps, minimal-group rate
    100 Kbps, 16-bit keys, 8-bit slot numbers, FEC sized for 50 % loss
    (``z = 2``), 10 groups and 250 ms slots.
    """

    data_bits_per_packet: int = 4000
    cumulative_rate_bps: float = 4_000_000.0
    minimal_rate_bps: float = 100_000.0
    key_bits: int = 16
    slot_number_bits: int = 8
    fec_expansion: float = 2.0
    special_packet_header_bits: int = 224
    group_count: int = 10
    slot_duration_s: float = 0.25
    #: Average per-slot frequency of upgrade authorisations per group
    #: (``f_g`` in the paper); a single value applied to groups 2..N.
    upgrade_frequency: float = 0.5

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def rate_factor(self) -> float:
        """Multiplicative factor ``m`` determined by R = r * m^(N-1) (Eq. 10)."""
        if self.group_count == 1:
            return 1.0
        return (self.cumulative_rate_bps / self.minimal_rate_bps) ** (
            1.0 / (self.group_count - 1)
        )

    def packets_per_slot(self) -> float:
        """Average data packets per slot for the whole session (Eq. 11)."""
        return self.cumulative_rate_bps * self.slot_duration_s / self.data_bits_per_packet

    # ------------------------------------------------------------------
    # overhead expressions
    # ------------------------------------------------------------------
    def delta_overhead(self) -> float:
        """DELTA bits / data bits (final simplified expression of §5.4)."""
        n = self.group_count
        m = self.rate_factor
        return (2.0 - 1.0 / (m ** (n - 1))) * self.key_bits / self.data_bits_per_packet

    def sigma_overhead(self) -> float:
        """SIGMA bits / data bits (final simplified expression of §5.4)."""
        n = self.group_count
        m = self.rate_factor
        upgrade_sum = self.upgrade_frequency * max(0, n - 1)
        key_bits_total = self.key_bits * (2 * n - 1 + upgrade_sum)
        numerator = (
            self.slot_number_bits + 32 * n + key_bits_total
        ) * self.fec_expansion + self.special_packet_header_bits
        denominator = self.minimal_rate_bps * self.slot_duration_s * (m ** (n - 1))
        return numerator / denominator

    def delta_overhead_percent(self) -> float:
        return self.delta_overhead() * 100.0

    def sigma_overhead_percent(self) -> float:
        return self.sigma_overhead() * 100.0

    # ------------------------------------------------------------------
    # Figure 9 sweeps
    # ------------------------------------------------------------------
    def sweep_group_count(self, group_counts: Sequence[int]) -> List[OverheadPoint]:
        """Figure 9(a): overhead versus the number of groups in the session."""
        points = []
        for n in group_counts:
            model = replace(self, group_count=n)
            points.append(
                OverheadPoint(
                    parameter=float(n),
                    delta_percent=model.delta_overhead_percent(),
                    sigma_percent=model.sigma_overhead_percent(),
                )
            )
        return points

    def sweep_slot_duration(self, durations_s: Sequence[float]) -> List[OverheadPoint]:
        """Figure 9(b): overhead versus the time-slot duration."""
        points = []
        for t in durations_s:
            model = replace(self, slot_duration_s=t)
            points.append(
                OverheadPoint(
                    parameter=t,
                    delta_percent=model.delta_overhead_percent(),
                    sigma_percent=model.sigma_overhead_percent(),
                )
            )
        return points


#: The exact parameterisation the paper uses to draw Figure 9.
FIGURE9_DEFAULTS = OverheadModel()
