"""Machine-speed meter: what lets two runs on a noisy sandbox be compared.

The reference sandbox is a shared VM whose CPUs run tens of per cent faster
or slower from one half-minute to the next (no steal time shows; the work
itself gets slower): within seven minutes the same twelve in-process cells
took between 10.2 s and 16.1 s.  No bound the contract allows survives
that, so every *time* the benchmark reports end to end is given in
**reference seconds**: the time measured, multiplied by how fast the machine
was running Python while it was measured.  Those seven minutes read 10.2 s
to 11.5 s in reference seconds.

Speed is read twenty times a second by a ``SIGALRM`` handler that times a
fixed piece of work in thread CPU time, which counts what the work cost and
not how long it waited for a processor.  The work is half an arithmetic
loop and half a miniature event queue (heap of tuples, objects with
attributes): of the kernels tried, each alone tracked some cells and not
others; the mix left the least unexplained.  It belongs to the benchmark and
calls nothing under ``src/``, so a faster simulator cannot make the machine
look slower.  It costs 1.5 % of one CPU, on both sides of every comparison,
and the speed it found is kept beside every number so the raw seconds can be
had back.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple


class _Station:
    __slots__ = ("served", "last")

    def __init__(self) -> None:
        self.served = 0
        self.last = 0.0


class SpeedMeter:
    """Samples the machine's speed while the benchmark runs.

    A *reading* is the thread CPU time one fixed piece of work cost.
    ``speed(t0, t1)`` is ``REFERENCE_S`` ÷ the mean reading between two
    ``time.perf_counter()`` instants: 1.0 on a machine exactly as fast as
    the reference, above it on a faster one.  ``seconds(t0, t1)`` is the
    interval in reference seconds.
    """

    INTERVAL_S = 0.05
    LOOP = 8_000
    EVENTS = 200
    STATIONS = 2_000
    #: What one reading costs at reference speed (the sandbox on a usual day).
    REFERENCE_S = 0.00065
    #: A shorter interval is judged by the readings of this much time around it.
    MIN_WINDOW_S = 1.0
    MIN_READINGS = 5

    def __init__(self) -> None:
        self._at: List[float] = []
        self._cost: List[float] = []
        self._stations = [_Station() for _ in range(self.STATIONS)]
        self._state = 12345
        self._queue = [(float(self._draw()), n, self._stations[n]) for n in range(self.STATIONS)]
        heapq.heapify(self._queue)
        self._sequence = self.STATIONS

    def _draw(self) -> int:
        self._state = (self._state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._state

    def _work(self) -> None:
        total = 0
        for i in range(self.LOOP):
            total += i * i
        queue, stations = self._queue, self._stations
        for _ in range(self.EVENTS):
            at, _sequence, station = heapq.heappop(queue)
            station.served += 1
            station.last = at
            self._sequence += 1
            drawn = self._draw()
            later = (at + drawn % 1000, self._sequence, stations[drawn % self.STATIONS])
            heapq.heappush(queue, later)

    def record(self, at: float, cost_s: float) -> None:
        """One reading, taken at ``time.perf_counter()`` instant ``at``."""
        self._at.append(at)
        self._cost.append(cost_s)

    def _tick(self, _signum: int, _frame: object) -> None:
        started = time.thread_time()
        self._work()
        self.record(time.perf_counter(), time.thread_time() - started)

    @contextmanager
    def running(self) -> Iterator["SpeedMeter"]:
        """Read the speed from now until the block ends (main thread only)."""
        # An interval that starts at once has no earlier readings to lean on.
        for _ in range(self.MIN_READINGS):
            self._tick(signal.SIGALRM, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, t0: float, t1: float) -> float:
        pad = max(0.0, (self.MIN_WINDOW_S - (t1 - t0)) / 2)
        low = bisect.bisect_left(self._at, t0 - pad)
        high = bisect.bisect_right(self._at, t1 + pad)
        if high - low < self.MIN_READINGS:
            raise RuntimeError(
                f"speed meter has {high - low} reading(s) for a {t1 - t0:.3f} s interval; "
                "is it running, and is SIGALRM reaching the main thread?"
            )
        return self.REFERENCE_S * (high - low) / sum(self._cost[low:high])

    def seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.speed(t0, t1)

    def scaled(self, samples: List[float], window: Tuple[float, float]) -> List[float]:
        """Raw durations taken inside ``window``, in reference units."""
        speed = self.speed(*window)
        return [sample * speed for sample in samples]
