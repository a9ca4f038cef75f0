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
  tuples, so every heap comparison stays in C.  :meth:`Simulator.call_after`
  / :meth:`Simulator.call_at` push an entry and return nothing — the
  per-packet hot path (link serialization, delivery, control-channel
  messages) lives here.  :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` push the same entry and return an
  :class:`Event` handle onto it.
* :meth:`Event.cancel` removes its entry from the heap *eagerly*
  (``heap.remove`` + ``heapify``).  There are no lazy tombstones anywhere —
  the heap never retains cancelled events, so its size is exactly the number
  of live events even under timer churn (flapping receivers).  The price is
  that **``cancel()`` is O(live events)**: it is for control-plane timers
  (a stopped source, an emptied timer group).  A per-packet timer keeps a
  deadline and lets one wake re-arm itself, as
  :class:`~repro.transport.tcp.TcpRenoSender` does for its RTO.
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
    "Event",
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


class Event:
    """Handle onto one scheduled callback; lets the caller cancel it.

    Instances are returned by :meth:`Simulator.schedule` and wrap the
    ``(time, seq, callback, args)`` heap entry.  Events run in
    ``(time, seq)`` order, so execution is stable and deterministic.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback runs.
    seq:
        Global scheduling sequence number; breaks ties between events that
        share a ``time`` (FIFO order of scheduling).
    callback, args:
        The callable and the positional arguments it will receive.
    cancelled:
        True once :meth:`cancel` has been called.  A cancelled event is no
        longer in the heap; cancelling an event that already executed is a
        harmless no-op.
    """

    __slots__ = ("_entry", "_heap", "cancelled")

    def __init__(self, entry: _Entry, heap: List[_Entry]) -> None:
        self._entry = entry
        self._heap = heap
        self.cancelled = False

    time = property(lambda self: self._entry[0])
    seq = property(lambda self: self._entry[1])
    callback = property(lambda self: self._entry[2])
    args = property(lambda self: self._entry[3])

    def cancel(self) -> None:
        """Cancel the event, removing its heap entry eagerly.

        O(live events): meant for control-plane timers, not per-packet ones
        (keep a deadline instead, as the TCP retransmission timer does).
        """
        if self.cancelled:
            return
        self.cancelled = True
        try:
            self._heap.remove(self._entry)
        except ValueError:  # already executed (or cleared)
            return
        heapq.heapify(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = ", cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}{state})"


class Simulator:
    """Event-heap discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, my_callback, arg1, arg2)
        sim.run(until=10.0)

    The simulator can be run in increments: successive calls to
    :meth:`run` continue from the current simulated time.  Use
    :meth:`schedule` when the caller may need to cancel the event (it
    returns an :class:`Event` handle) and :meth:`call_after` on hot paths
    that never cancel (it allocates no handle and returns nothing).
    """

    def __init__(self) -> None:
        #: Every live event: (time, seq, callback, args) tuples ordered by C
        #: heapq.  Never rebound — Event handles and the run loop hold the list.
        self._heap: List[_Entry] = []
        #: Coalesced periodic-timer groups keyed by (next fire time, interval).
        self._timer_groups: Dict[Tuple[float, float], "_TimerGroup"] = {}
        self._seq = 0
        self._now = 0.0
        self._stopped = False
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
        """Number of live events in the heap.

        Cancelled events are removed eagerly, so — unlike a tombstone
        scheduler — this is exactly the heap memory footprint.
        """
        return len(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.  ``delay`` must
        be non-negative; a zero delay runs the callback later in the same
        simulated instant (after currently executing code returns).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time is in the past"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, callback, args)
        heapq.heappush(self._heap, entry)
        return Event(entry, self._heap)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without a handle: no cancellation, nothing returned.

        This is the per-packet scheduling primitive: link serialization and
        propagation, control-channel deliveries and transmit-loop wakeups go
        through here.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, callback, args))

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule_at` without a handle: no cancellation, nothing returned."""
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
            group.event = self.schedule_at(fire_time, group._fire)
        group.members.append(timer)
        timer._group = group

    def _timer_group_leave(self, timer: "PeriodicTimer") -> None:
        """Remove ``timer`` from its group, cancelling an empty group's wakeup."""
        group = timer._group
        timer._group = None
        if group is None:
            return
        try:
            group.members.remove(timer)
        except ValueError:  # already detached by a firing group
            return
        if not group.members and not group.firing:
            if group.event is not None:
                group.event.cancel()
                group.event = None
            self._timer_groups.pop((group.next_time, group.interval), None)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Execute the single next pending event.

        Returns a handle describing the event executed, or ``None`` if the
        heap is empty.  :meth:`run` is the efficient bulk driver; ``step``
        exists for tests and debugging.
        """
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        self._now = entry[0]
        entry[2](*entry[3])
        self._events_executed += 1
        return Event(entry, self._heap)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> None:
        """Run events until the heap drains, ``until`` passes, or ``max_events``.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  Events at exactly
            ``until`` are executed; later events remain queued.  When the
            heap drains before ``until``, the clock is advanced to
            ``until`` so periodic post-processing sees a consistent end time.
        max_events:
            Optional hard cap on the number of events to execute, useful as
            a safety net in tests.
        inclusive:
            When ``False``, events scheduled at exactly ``until`` are left
            queued instead of executed — the slot-barrier cut used by
            checkpointing: everything strictly before the barrier runs, the
            clock advances to the barrier, and the barrier's own events fire
            first on the next :meth:`run`.
        """
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        counted = max_events is not None
        try:
            while heap and not self._stopped:
                if counted and executed >= max_events:
                    break
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
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` loop after the executing event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop all pending events without executing them."""
        self._heap.clear()
        self._timer_groups.clear()


class _TimerGroup:
    """One shared wakeup for every :class:`PeriodicTimer` on the same beat.

    A group fires all member callbacks in registration order — the same
    FIFO order the members' separate events would have had — then
    reschedules itself one interval ahead.
    """

    __slots__ = ("sim", "next_time", "interval", "members", "event", "firing")

    def __init__(self, sim: Simulator, next_time: float, interval: float) -> None:
        self.sim = sim
        self.next_time = next_time
        self.interval = interval
        self.members: List["PeriodicTimer"] = []
        self.event: Optional[Event] = None
        self.firing = False

    def _fire(self) -> None:
        sim = self.sim
        sim._timer_groups.pop((self.next_time, self.interval), None)
        self.event = None
        self.firing = True
        survivors: List["PeriodicTimer"] = []
        for timer in list(self.members):
            if not timer._running or timer._group is not self:
                continue
            timer._callback()
            if timer._running and timer._group is self:
                survivors.append(timer)
        self.firing = False
        self.members = []
        if not survivors:
            return
        next_time = sim._now + self.interval
        key = (next_time, self.interval)
        existing = sim._timer_groups.get(key)
        if existing is not None:
            # A timer started during this firing already claimed the beat;
            # survivors keep their earlier registration order ahead of it.
            existing.members[0:0] = survivors
            for timer in survivors:
                timer._group = existing
            return
        self.next_time = next_time
        self.members = survivors
        for timer in survivors:
            timer._group = self
        sim._timer_groups[key] = self
        self.event = sim.schedule_at(next_time, self._fire)


class PeriodicTimer:
    """Fires a callback every ``interval`` seconds until stopped.

    The first firing happens ``interval`` seconds after :meth:`start`
    (or after ``first_delay`` when supplied).  The callback receives no
    arguments; bind state with ``functools.partial`` or a closure.

    Timers sharing an interval and a beat (for example the per-receiver
    FLID slot-evaluation timers, which all fire at ``slot + guard``) are
    coalesced by the engine into one heap event per beat; see
    :class:`_TimerGroup`.  Stopping a timer detaches it from its group
    eagerly, so no cancelled work lingers in the heap.
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
        self._group: Optional[_TimerGroup] = None
        self._running = False

    @property
    def running(self) -> bool:
        """True while the timer is scheduled to keep firing."""
        return self._running

    @property
    def interval(self) -> float:
        """Firing interval in simulated seconds."""
        return self._interval

    def start(self) -> None:
        """Begin firing; idempotent while running."""
        if self._running:
            return
        self._running = True
        self._sim._timer_group_join(self, self._sim.now + self._first_delay)

    def stop(self) -> None:
        """Stop firing and leave the shared wakeup group eagerly."""
        self._running = False
        if self._group is not None:
            self._sim._timer_group_leave(self)
