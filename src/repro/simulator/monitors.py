"""Measurement instrumentation.

The paper's figures are all throughput time-series or averages measured at
receivers, plus the overhead ratios of §5.4.  This module provides the
corresponding instruments:

``ThroughputMonitor``
    Records bytes received by one flow into fixed-width time bins and exposes
    the per-bin rate series (the lines of Figures 1, 7, 8(e), 8(g), 8(h)) as
    well as interval averages (the points of Figures 8(a)-(d), 8(f)).

``LinkMonitor``
    Reports a link's utilisation since the monitor was created.

``OverheadAccumulator``
    Accumulates data bits versus DELTA/SIGMA overhead bits so that the
    measured overhead ratios of Figure 9 can be compared with the analytic
    model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .link import Link

__all__ = [
    "ThroughputMonitor",
    "ThroughputSample",
    "LinkMonitor",
    "OverheadAccumulator",
]


@dataclass(frozen=True)
class ThroughputSample:
    """One point of a throughput time-series."""

    time_s: float
    rate_bps: float

    @property
    def rate_kbps(self) -> float:
        """Sample rate in kilobits per second."""
        return self.rate_bps / 1e3


class ThroughputMonitor:
    """Bins received bytes into fixed intervals and reports rates.

    Receivers call :meth:`record` for every delivered packet.  The monitor is
    clock-driven rather than event-driven, and recording is *batched*: bytes
    accumulate in two plain integers for the bin in progress and are flushed
    into the bin table only when time advances past the bin edge (in the
    paper's scenarios, once per slot/second rather than once per packet).
    Readers flush implicitly, so every reported series and average is
    byte-identical to the per-packet bookkeeping it replaced.
    """

    def __init__(self, clock, bin_width_s: float = 1.0, name: str = "") -> None:
        if bin_width_s <= 0:
            raise ValueError(f"bin width must be positive (got {bin_width_s})")
        self._clock = clock
        self.bin_width_s = bin_width_s
        self.name = name
        self._bins: dict[int, int] = {}
        #: Bin currently accumulating (-1 before the first record).
        self._open_index = -1
        self._open_bytes = 0
        self.total_bytes = 0
        self.total_packets = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    # ------------------------------------------------------------------
    def record(self, nbytes: int, time_s: Optional[float] = None) -> None:
        """Account ``nbytes`` received at ``time_s`` (defaults to now)."""
        if nbytes < 0:
            raise ValueError("cannot record a negative byte count")
        t = self._clock.now if time_s is None else time_s
        index = int(t / self.bin_width_s)
        if index == self._open_index:
            self._open_bytes += nbytes
        elif index > self._open_index:
            self._flush()
            self._open_index = index
            self._open_bytes = nbytes
        else:
            # Out-of-order explicit timestamp: account directly to its bin.
            bins = self._bins
            bins[index] = bins.get(index, 0) + nbytes
        self.total_bytes += nbytes
        self.total_packets += 1
        if self.first_time is None:
            self.first_time = t
        self.last_time = t

    def _flush(self) -> None:
        """Fold the open accumulator into the bin table (idempotent)."""
        if self._open_index >= 0:
            bins = self._bins
            index = self._open_index
            bins[index] = bins.get(index, 0) + self._open_bytes
            self._open_index = -1
            self._open_bytes = 0

    # ------------------------------------------------------------------
    def series(self, end_time_s: Optional[float] = None) -> List[ThroughputSample]:
        """Per-bin throughput samples from t=0 to ``end_time_s`` (or last bin)."""
        self._flush()
        if not self._bins and end_time_s is None:
            return []
        last_bin = max(self._bins) if self._bins else 0
        if end_time_s is not None:
            last_bin = max(last_bin, int(math.ceil(end_time_s / self.bin_width_s)) - 1)
        samples = []
        for index in range(0, last_bin + 1):
            nbytes = self._bins.get(index, 0)
            rate = nbytes * 8.0 / self.bin_width_s
            samples.append(ThroughputSample(time_s=(index + 1) * self.bin_width_s, rate_bps=rate))
        return samples

    def smoothed_series(
        self, window_bins: int = 5, end_time_s: Optional[float] = None
    ) -> List[ThroughputSample]:
        """Moving-average series, matching the visual smoothing of the paper's plots."""
        raw = self.series(end_time_s)
        if window_bins <= 1 or not raw:
            return raw
        smoothed = []
        for i, sample in enumerate(raw):
            lo = max(0, i - window_bins + 1)
            window = raw[lo : i + 1]
            rate = sum(s.rate_bps for s in window) / len(window)
            smoothed.append(ThroughputSample(time_s=sample.time_s, rate_bps=rate))
        return smoothed

    def average_rate_bps(
        self, start_s: float = 0.0, end_s: Optional[float] = None
    ) -> float:
        """Average throughput over [start_s, end_s] in bits per second."""
        self._flush()
        if end_s is None:
            end_s = (max(self._bins) + 1) * self.bin_width_s if self._bins else start_s
        if end_s <= start_s:
            return 0.0
        total = 0
        for index, nbytes in self._bins.items():
            bin_start = index * self.bin_width_s
            bin_end = bin_start + self.bin_width_s
            overlap = min(bin_end, end_s) - max(bin_start, start_s)
            if overlap <= 0:
                continue
            total += nbytes * (overlap / self.bin_width_s)
        return total * 8.0 / (end_s - start_s)

    def average_rate_kbps(self, start_s: float = 0.0, end_s: Optional[float] = None) -> float:
        """Average throughput over [start_s, end_s] in kilobits per second."""
        return self.average_rate_bps(start_s, end_s) / 1e3


class LinkMonitor:
    """Utilisation of one link over an interval."""

    def __init__(self, link: Link, clock) -> None:
        self.link = link
        self._clock = clock
        self._start_time = clock.now
        self._start_bits = self._bits_on_wire()

    def _bits_on_wire(self) -> float:
        """Bits the link has serialized up to now.

        ``stats.transmitted_bytes`` counts a packet when its serialization
        starts; the part still to go onto the wire is taken back off.
        """
        link = self.link
        bits = link.stats.transmitted_bytes * 8
        remaining_s = link._busy_until - self._clock.now
        if remaining_s > 0:
            bits -= remaining_s * link.bandwidth_bps
        return bits

    def utilisation(self) -> float:
        """Fraction of the link capacity used since the monitor was created."""
        elapsed = self._clock.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return (self._bits_on_wire() - self._start_bits) / (self.link.bandwidth_bps * elapsed)


class OverheadAccumulator:
    """Tracks data bits versus protection-overhead bits (Figure 9).

    DELTA overhead is accumulated per data packet (component + decrease
    fields); SIGMA overhead is accumulated per special control packet.  The
    ratios mirror O_delta and O_sigma from §5.4.
    """

    def __init__(self) -> None:
        self.data_bits = 0
        self.delta_bits = 0
        self.sigma_bits = 0

    def record_data_packet(self, payload_bits: int, delta_bits: int = 0) -> None:
        """Account one data packet and its embedded DELTA field bits."""
        self.data_bits += payload_bits
        self.delta_bits += delta_bits

    def record_sigma_packet(self, total_bits: int) -> None:
        """Account one SIGMA special packet (its full wire size is overhead)."""
        self.sigma_bits += total_bits

    @property
    def delta_overhead(self) -> float:
        """Ratio of DELTA bits to data bits (0.0 when no data yet)."""
        return self.delta_bits / self.data_bits if self.data_bits else 0.0

    @property
    def sigma_overhead(self) -> float:
        """Ratio of SIGMA bits to data bits (0.0 when no data yet)."""
        return self.sigma_bits / self.data_bits if self.data_bits else 0.0

    def as_percentages(self) -> Tuple[float, float]:
        """(DELTA %, SIGMA %) — the y-axis of Figure 9."""
        return self.delta_overhead * 100.0, self.sigma_overhead * 100.0


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is maximally unfair."""
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)
