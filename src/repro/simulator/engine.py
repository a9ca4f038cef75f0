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
* The scheduler keeps **two lanes** that share one sequence counter and are
  merged into a single total order at execution time:

  - a *fast lane* (:meth:`Simulator.call_after` / :meth:`Simulator.call_at`)
    backed by the C ``heapq`` over plain tuples.  Fast-lane events cannot be
    cancelled and return no handle; this is where the per-packet hot path
    (link serialization, delivery, control-channel messages) lives, because
    tuple keys keep every heap comparison in C.
  - a *cancellable lane* (:meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`) backed by an **indexed binary heap**:
    every :class:`Event` tracks its heap position, so
    :meth:`Event.cancel` removes it from the heap *eagerly* in O(log n).
    There are no lazy tombstones anywhere — the heap never retains
    cancelled events, so its size is exactly the number of live events even
    under heavy timer churn (flapping receivers, per-ACK RTO restarts).

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


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Examples include scheduling an event in the past or constructing a
    :class:`PeriodicTimer` with a non-positive interval.
    """


class Event:
    """A single scheduled, cancellable callback.

    Instances are returned by :meth:`Simulator.schedule` and can be used to
    cancel the event before it fires.  Events order by ``(time, seq)`` so
    execution is stable and deterministic.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback runs.
    seq:
        Global scheduling sequence number; breaks ties between events that
        share a ``time`` (FIFO order of scheduling).
    callback, args, kwargs:
        The callable and the arguments it will receive.
    cancelled:
        True once :meth:`cancel` has been called.  A cancelled event is no
        longer in the heap; cancelling an event that already executed is a
        harmless no-op.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "_index", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self._index = -1
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel the event, removing it from the heap eagerly (O(log n))."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None and self._index >= 0:
            sim._cancellable.remove(self)
        self._sim = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else ("pending" if self._index >= 0 else "done")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


class _IndexedHeap:
    """Binary min-heap of :class:`Event` objects with position tracking.

    Every contained event stores its heap index in ``event._index``, which
    makes :meth:`remove` — and therefore :meth:`Event.cancel` — an O(log n)
    sift instead of a lazy tombstone.  Ordering is ``(time, seq)``.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def __len__(self) -> int:
        return len(self._heap)

    def peek(self) -> Optional[Event]:
        """The minimum event without removing it (None when empty)."""
        heap = self._heap
        return heap[0] if heap else None

    def push(self, event: Event) -> None:
        """Insert ``event`` and record its position."""
        heap = self._heap
        index = len(heap)
        heap.append(event)
        self._sift_up(event, index)

    def pop(self) -> Event:
        """Remove and return the minimum event."""
        heap = self._heap
        root = heap[0]
        root._index = -1
        last = heap.pop()
        if heap and last is not root:
            self._sift_down(last, 0)
        return root

    def remove(self, event: Event) -> bool:
        """Remove ``event`` from an arbitrary position; True when present."""
        index = event._index
        if index < 0:
            return False
        event._index = -1
        heap = self._heap
        last = heap.pop()
        if last is event or index >= len(heap):
            return True
        # Re-seat the displaced tail element; it may need to move either way.
        time, seq = last.time, last.seq
        if index > 0:
            parent = heap[(index - 1) >> 1]
            if time < parent.time or (time == parent.time and seq < parent.seq):
                self._sift_up(last, index)
                return True
        self._sift_down(last, index)
        return True

    def clear(self) -> None:
        """Drop every event, detaching their heap positions."""
        for event in self._heap:
            event._index = -1
            event._sim = None
        self._heap.clear()

    # ------------------------------------------------------------------
    def _sift_up(self, event: Event, index: int) -> None:
        heap = self._heap
        time, seq = event.time, event.seq
        while index > 0:
            parent_index = (index - 1) >> 1
            parent = heap[parent_index]
            if time < parent.time or (time == parent.time and seq < parent.seq):
                heap[index] = parent
                parent._index = index
                index = parent_index
            else:
                break
        heap[index] = event
        event._index = index

    def _sift_down(self, event: Event, index: int) -> None:
        heap = self._heap
        size = len(heap)
        time, seq = event.time, event.seq
        while True:
            child_index = 2 * index + 1
            if child_index >= size:
                break
            child = heap[child_index]
            right_index = child_index + 1
            if right_index < size:
                right = heap[right_index]
                if right.time < child.time or (
                    right.time == child.time and right.seq < child.seq
                ):
                    child = right
                    child_index = right_index
            if child.time < time or (child.time == time and child.seq < seq):
                heap[index] = child
                child._index = index
                index = child_index
            else:
                break
        heap[index] = event
        event._index = index


class Simulator:
    """Two-lane event-heap discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, my_callback, arg1, arg2)
        sim.run(until=10.0)

    The simulator can be run in increments: successive calls to
    :meth:`run` continue from the current simulated time.  Use
    :meth:`schedule` when the caller may need to cancel the event (it
    returns an :class:`Event` handle) and :meth:`call_after` on hot paths
    that never cancel (it is substantially faster and returns nothing).
    """

    def __init__(self) -> None:
        #: Fast lane: (time, seq, callback, args) tuples ordered by C heapq.
        self._fast: List[Tuple[float, int, Callable[..., None], tuple]] = []
        #: Cancellable lane: indexed heap of Event objects.
        self._cancellable = _IndexedHeap()
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
        """Number of events executed so far (useful in tests and benches)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events in the heaps.

        Cancelled events are removed eagerly, so — unlike a tombstone
        scheduler — this is exactly the heap memory footprint.
        """
        return len(self._fast) + len(self._cancellable)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.  ``delay`` must
        be non-negative; a zero delay runs the callback later in the same
        simulated instant (after currently executing code returns).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time is in the past"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, kwargs or None)
        event._sim = self
        self._cancellable.push(event)
        return event

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast-lane :meth:`schedule`: no handle, no kwargs, no cancellation.

        This is the per-packet scheduling primitive: link serialization and
        propagation, control-channel deliveries and transmit-loop wakeups go
        through here.  Events are plain tuples in a C-ordered heap, so a
        fast-lane event costs roughly a quarter of a cancellable one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._fast, (self._now + delay, seq, callback, args))

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast-lane :meth:`schedule_at`: no handle, no kwargs, no cancellation."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time is in the past"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._fast, (time, seq, callback, args))

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

        Returns the event executed — materialising a handle for fast-lane
        events — or ``None`` if both lanes are empty.  :meth:`run` is the
        efficient bulk driver; ``step`` exists for tests and debugging.
        """
        fast = self._fast
        head = self._cancellable.peek()
        if fast:
            entry = fast[0]
            if head is None or (entry[0], entry[1]) < (head.time, head.seq):
                time, seq, callback, args = heapq.heappop(fast)
                self._now = time
                callback(*args)
                self._events_executed += 1
                done = Event(time, seq, callback, args)
                return done
        if head is None:
            return None
        event = self._cancellable.pop()
        event._sim = None
        self._now = event.time
        if event.kwargs:
            event.callback(*event.args, **event.kwargs)
        else:
            event.callback(*event.args)
        self._events_executed += 1
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> None:
        """Run events until the queues drain, ``until`` passes, or ``max_events``.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  Events at exactly
            ``until`` are executed; later events remain queued.  When the
            queues drain before ``until``, the clock is advanced to
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
        fast = self._fast
        cancellable = self._cancellable
        cancellable_heap = cancellable._heap
        heappop = heapq.heappop
        executed = 0
        counted = max_events is not None
        while not self._stopped:
            if counted and executed >= max_events:
                break
            head = cancellable_heap[0] if cancellable_heap else None
            if fast:
                entry = fast[0]
                time = entry[0]
                if head is not None and (
                    head.time < time or (head.time == time and head.seq < entry[1])
                ):
                    entry = None
                    time = head.time
            elif head is not None:
                entry = None
                time = head.time
            else:
                break
            if until is not None and (time > until or (not inclusive and time >= until)):
                break
            if entry is not None:
                heappop(fast)
                self._now = time
                entry[2](*entry[3])
            else:
                event = cancellable.pop()
                event._sim = None
                self._now = time
                if event.kwargs:
                    event.callback(*event.args, **event.kwargs)
                else:
                    event.callback(*event.args)
            self._events_executed += 1
            executed += 1
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` loop after the executing event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop all pending events (both lanes) without executing them."""
        self._fast.clear()
        self._cancellable.clear()
        self._timer_groups.clear()


class _TimerGroup:
    """One shared wakeup for every :class:`PeriodicTimer` on the same beat.

    A group fires all member callbacks in registration order — the same
    FIFO order the members' separate events would have had — then
    reschedules itself one interval ahead.  Members whose interval changed
    (via :meth:`PeriodicTimer.reschedule`) migrate to a matching group at
    their next fire time.
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
            timer.fired += 1
            timer._callback()
            if not timer._running or timer._group is not self:
                continue
            if timer._interval == self.interval:
                survivors.append(timer)
            else:
                # Interval changed mid-flight: migrate at the new cadence.
                timer._group = None
                sim._timer_group_join(timer, sim._now + timer._interval)
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
        #: Number of times the callback has fired.
        self.fired = 0

    @property
    def running(self) -> bool:
        """True while the timer is scheduled to keep firing."""
        return self._running

    @property
    def interval(self) -> float:
        """Current firing interval in simulated seconds."""
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

    def reschedule(self, interval: float) -> None:
        """Change the firing interval, effective from the next firing."""
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive (got {interval})")
        self._interval = interval
