"""Regression tests for the engine's one event heap.

Three invariants of the scheduler are locked in here:

* the heap holds nothing but scheduled events, so under membership churn it
  stays as small as the set of live flows and timers;
* ``schedule`` and ``schedule_at`` entries interleave in exact
  ``(time, seq)`` FIFO order;
* coalesced periodic timers (shared slot-boundary wakeups) fire with the
  same times, counts and relative order as independent timers would.
"""

from repro.experiments import scenario_spec
from repro.experiments.scenario import Scenario
from repro.simulator.engine import PeriodicTimer, Simulator


class TestHeapSize:
    def test_churn_attack_scenario_heap_stays_bounded(self):
        """Flapping-membership attack: pending events stay O(active timers).

        Every stopped slot timer or cancelled retransmission once left a
        tombstone that survived until its (possibly far-future) pop, so
        churn grew the heap without bound relative to the live set.
        """
        spec = scenario_spec("attack-flapping", attack_start_s=2.0, duration_s=10.0)
        scenario = Scenario.from_spec(spec)
        sim = scenario.network.sim
        peak = 0
        step = 0.5
        t = step
        while t <= 10.0:
            scenario.run(t)
            peak = max(peak, sim.pending_events)
            t += step
        # The scenario keeps a handful of flows plus per-link transmissions
        # in flight; anything near the historical tombstone counts (tens of
        # thousands under churn) means the leak is back.
        assert peak < 2_000, f"heap peaked at {peak} pending events"


class TestFifoOrder:
    def test_same_instant_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule_at(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.schedule(0.5, order.append, "early")
        sim.schedule_at(2.0, order.append, "late")
        sim.run()
        assert order == ["early", "a", "b", "c", "late"]

    def test_one_event_run_executes_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "x")
        sim.schedule(2.0, seen.append, "y")
        sim.run(until=1.0)
        assert seen == ["x"]
        assert (sim.now, sim.events_executed, sim.pending_events) == (1.0, 1, 1)


class TestCoalescedTimers:
    def test_same_beat_timers_share_one_heap_event(self):
        sim = Simulator()
        ticks = []
        timers = [
            PeriodicTimer(sim, 0.5, (lambda i=i: ticks.append((sim.now, i))))
            for i in range(8)
        ]
        for timer in timers:
            timer.start()
        # All eight share a (first fire, interval) beat: one wakeup event.
        assert sim.pending_events == 1
        sim.run(until=1.6)
        assert [t for t, _ in ticks] == [0.5] * 8 + [1.0] * 8 + [1.5] * 8
        # Registration (FIFO) order within each beat.
        assert [i for _, i in ticks[:8]] == list(range(8))

    def test_members_fire_on_every_beat_for_the_whole_run(self):
        """Nothing stops a timer: one wakeup per beat fires every member."""
        sim = Simulator()
        ticks = []
        for i in range(3):
            PeriodicTimer(sim, 1.0, (lambda i=i: ticks.append(i))).start()
        sim.run(until=100.5)
        assert ticks == [0, 1, 2] * 100
        assert sim.events_executed == 100 and sim.pending_events == 1
        [group] = sim._timer_groups.values()
        assert (group.next_time, len(group.members)) == (101.0, 3)

    def test_restart_during_beat_preserves_each_timer(self):
        sim = Simulator()
        ticks = []
        other = PeriodicTimer(sim, 1.0, lambda: ticks.append(("other", sim.now)))

        def tick():
            ticks.append(("self", sim.now))
            if sim.now == 1.0:
                other.start()

        timer = PeriodicTimer(sim, 1.0, tick)
        timer.start()
        sim.run(until=3.0)
        assert ("other", 2.0) in ticks and ("other", 3.0) in ticks
        assert [t for name, t in ticks if name == "self"] == [1.0, 2.0, 3.0]
