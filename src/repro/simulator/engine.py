"""Discrete-event simulation engine.

The engine is the substrate that replaces NS-2 in this reproduction.  It is
an event-heap simulator: callers schedule *events* (callbacks with arguments)
at absolute or relative simulated times and the engine executes them in time
order.  All other subsystems (links, transport protocols, multicast
congestion control, SIGMA edge routers) are built on top of this module.

Design notes
------------
* Simulated time is a ``float`` number of seconds, starting at ``0.0``.
* Events scheduled for the same time are executed in FIFO order of
  scheduling (a monotonically increasing sequence number breaks ties), which
  keeps runs fully deterministic.
* The scheduler is **one** C ``heapq`` of ``(time, seq, callback, args)``
  tuples, so every heap comparison stays in C.  It has one scheduling pair,
  :meth:`Simulator.schedule` (relative) and :meth:`Simulator.schedule_at`
  (absolute): each pushes an entry and returns nothing.
* An entry leaves the heap only by running, so its size is exactly the
  number of scheduled events.  A caller that may change its mind checks,
  when the callback runs, whether it still applies: the TCP retransmission
  timer keeps a *deadline* that one wake re-arms
  (:class:`~repro.transport.tcp.TcpRenoSender`), and a stopped CBR source
  ignores a send whose *generation* number is stale
  (:class:`~repro.transport.cbr.CbrSource`).
* Recurring activities are provided by :class:`PeriodicTimer`.  Timers with
  the same interval that fire at the same instant (FLID slot timers, SIGMA
  key distribution, monitor flushes at slot boundaries) are *coalesced*
  transparently into one shared wakeup per period: the engine keeps one heap
  event per ``(next fire time, interval)`` group and runs the member
  callbacks in registration order, which matches the FIFO order the separate
  events would have had.

The engine deliberately knows nothing about packets, links or protocols; it
only runs callbacks.  This keeps every higher layer unit-testable with a
bare engine.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Simulator",
    "PeriodicTimer",
    "SimulationError",
]


#: One heap entry; ``(time, seq)`` is unique, so comparisons never reach the
#: callback.
_Entry = Tuple[float, int, Callable[..., None], tuple]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Examples include scheduling an event in the past or constructing a
    :class:`PeriodicTimer` with a non-positive interval.
    """


class Simulator:
    """Event-heap discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, my_callback, arg1, arg2)
        sim.run(until=10.0)

    The simulator can be run in increments: successive calls to
    :meth:`run` continue from the current simulated time.
    """

    def __init__(self) -> None:
        #: Every scheduled event: (time, seq, callback, args) tuples ordered
        #: by C heapq.  Never rebound — the run loop holds the list.
        self._heap: List[_Entry] = []
        #: Coalesced periodic-timer groups keyed by (next fire time, interval).
        self._timer_groups: Dict[Tuple[float, float], "_TimerGroup"] = {}
        self._seq = 0
        self._now = 0.0
        self._events_executed = 0

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (useful in tests and benches).

        Exact whenever :meth:`run` is not on the stack: the loop counts in a
        local and publishes once on the way out, so a callback reading this
        mid-run sees the count as of the start of that ``run``.
        """
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events in the heap: exactly its memory footprint.

        A superseded TCP wake or a stale CBR send counts until it runs, and
        does nothing then.
        """
        return len(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback later
        in the same simulated instant (after currently executing code
        returns).  Nothing is returned: an event cannot be cancelled, so a
        caller that may change its mind checks, when the callback runs,
        whether it still applies (a deadline or a generation number).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, callback, args))

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time is in the past"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args))

    # ------------------------------------------------------------------
    # periodic-timer coalescing (used by PeriodicTimer)
    # ------------------------------------------------------------------
    def _timer_group_join(self, timer: "PeriodicTimer", fire_time: float) -> None:
        """Register ``timer`` in the wakeup group firing at ``fire_time``."""
        key = (fire_time, timer._interval)
        group = self._timer_groups.get(key)
        if group is None:
            group = _TimerGroup(self, fire_time, timer._interval)
            self._timer_groups[key] = group
            self.schedule_at(fire_time, group._fire)
        group.members.append(timer)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, inclusive: bool = True) -> None:
        """Run events until the heap drains or ``until`` passes.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  Events at exactly
            ``until`` are executed; later events remain queued.  When the
            heap drains before ``until``, the clock is advanced to
            ``until`` so periodic post-processing sees a consistent end time.
        inclusive:
            When ``False``, events scheduled at exactly ``until`` are left
            queued instead of executed — the slot-barrier cut used by
            checkpointing: everything strictly before the barrier runs, the
            clock advances to the barrier, and the barrier's own events fire
            first on the next :meth:`run`.
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if until is not None and (time > until or (not inclusive and time >= until)):
                    break
                heappop(heap)
                self._now = time
                entry[2](*entry[3])
                executed += 1
        finally:
            self._events_executed += executed
        if until is not None and self._now < until:
            self._now = until


class _TimerGroup:
    """One shared wakeup for every :class:`PeriodicTimer` on the same beat.

    A group fires all member callbacks in registration order — the same
    FIFO order the members' separate events would have had — then
    reschedules itself one interval ahead.  Timers never stop, so every
    member fires on every beat of the run.
    """

    __slots__ = ("sim", "next_time", "interval", "members")

    def __init__(self, sim: Simulator, next_time: float, interval: float) -> None:
        self.sim = sim
        self.next_time = next_time
        self.interval = interval
        self.members: List["PeriodicTimer"] = []

    def _fire(self) -> None:
        sim = self.sim
        sim._timer_groups.pop((self.next_time, self.interval), None)
        # A timer started by a callback below joins a group of its own: this
        # one has already left ``_timer_groups``.
        members = self.members
        for timer in members:
            timer._callback()
        next_time = sim._now + self.interval
        key = (next_time, self.interval)
        existing = sim._timer_groups.get(key)
        if existing is not None:
            # A timer started during this firing already claimed the beat;
            # the members keep their earlier registration order ahead of it.
            existing.members[0:0] = members
            return
        self.next_time = next_time
        sim._timer_groups[key] = self
        sim.schedule_at(next_time, self._fire)


class PeriodicTimer:
    """Fires a callback every ``interval`` seconds for the rest of the run.

    The first firing happens ``interval`` seconds after :meth:`start`
    (or after ``first_delay`` when supplied).  The callback receives no
    arguments; bind state with ``functools.partial`` or a closure.

    Timers sharing an interval and a beat (for example the per-receiver
    FLID slot-evaluation timers, which all fire at ``slot + guard``) are
    coalesced by the engine into one heap event per beat; see
    :class:`_TimerGroup`.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        first_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive (got {interval})")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._first_delay = interval if first_delay is None else first_delay
        self._running = False

    def start(self) -> None:
        """Begin firing; idempotent."""
        if self._running:
            return
        self._running = True
        self._sim._timer_group_join(self, self._sim.now + self._first_delay)
