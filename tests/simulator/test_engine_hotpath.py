"""Regression tests for the engine's one event heap.

Three invariants of the scheduler are locked in here:

* ``Event.cancel`` removes its heap entry **eagerly** — the historical
  lazy-tombstone leak (cancelled RTO and CBR events lingering in the heap
  until popped) cannot recur;
* handle-less events (``call_after``/``call_at``) and cancellable ones
  (``schedule``/``schedule_at``) interleave in exact ``(time, seq)`` FIFO
  order;
* coalesced periodic timers (shared slot-boundary wakeups) fire with the
  same times, counts and relative order as independent timers would.
"""

import pickle

import pytest

from repro.experiments import scenario_spec
from repro.experiments.scenario import Scenario
from repro.simulator.engine import PeriodicTimer, SimulationError, Simulator


class TestEagerCancellation:
    def test_cancel_removes_event_from_heap_immediately(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert sim.pending_events == 100
        for event in events:
            event.cancel()
        # No tombstones: the heap is empty the moment the last cancel returns.
        assert sim.pending_events == 0
        assert len(sim._heap) == 0

    def test_cancel_out_of_order_keeps_heap_consistent(self):
        sim = Simulator()
        fired = []
        events = {}
        for i in range(200):
            events[i] = sim.schedule(((i * 7919) % 200) / 10.0 + 0.001, fired.append, i)
        for i in range(0, 200, 3):
            events[i].cancel()
        sim.run()
        expected = [i for i in range(200) if i % 3 != 0]
        assert sorted(fired) == expected
        # Execution respected (time, seq) order of the survivors.
        times = [((i * 7919) % 200) / 10.0 + 0.001 for i in fired]
        assert times == sorted(times)

    def test_rto_style_cancel_reschedule_stays_bounded(self):
        """Cancel+reschedule cycles (TCP RTO pattern) keep one live event."""
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        for _ in range(5_000):
            event.cancel()
            event = sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 1

    def test_handle_restored_from_pickle_still_cancels_its_entry(self):
        sim = Simulator()
        fired = []
        sim.call_after(1.0, fired.append, "kept")
        event = sim.schedule(2.0, fired.append, "cancelled")
        sim, event, fired = pickle.loads(pickle.dumps((sim, event, fired)))
        assert sim.pending_events == 2
        event.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["kept"]

    def test_cancel_after_execution_is_a_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "ran")
        sim.schedule(2.0, fired.append, "later")
        sim.run(until=1.5)
        event.cancel()
        assert event.cancelled and sim.pending_events == 1
        sim.run()
        assert fired == ["ran", "later"]

    def test_cancel_from_an_event_at_the_same_instant(self):
        """A cancels B while the run loop sits between them in the heap."""
        sim = Simulator()
        fired = []
        handles = {}

        def first():
            fired.append("a")
            handles["b"].cancel()

        sim.schedule(1.0, first)
        handles["b"] = sim.schedule(1.0, fired.append, "b")
        sim.call_after(1.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "c"]
        assert sim.pending_events == 0

    def test_churn_attack_scenario_heap_stays_bounded(self):
        """Flapping-membership attack: pending events stay O(active timers).

        Before the indexed heap, every stopped slot timer and cancelled
        retransmission left a tombstone that survived until its (possibly
        far-future) pop, so churn grew the heap without bound relative to
        the live set.
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


class TestLaneInterleaving:
    def test_fast_and_cancellable_lanes_share_fifo_order(self):
        sim = Simulator()
        order = []
        sim.call_after(1.0, order.append, "fast-a")
        sim.schedule(1.0, order.append, "cancellable")
        sim.call_after(1.0, order.append, "fast-b")
        sim.call_after(0.5, order.append, "early-fast")
        sim.schedule(2.0, order.append, "late")
        sim.run()
        assert order == ["early-fast", "fast-a", "cancellable", "fast-b", "late"]

    def test_call_at_and_schedule_at_merge_by_seq(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, order.append, 1)
        sim.call_at(3.0, order.append, 2)
        sim.schedule_at(3.0, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_fast_lane_rejects_past_times(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_after(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_one_event_run_executes_a_fast_lane_event(self):
        sim = Simulator()
        seen = []
        sim.call_after(1.0, seen.append, "x")
        sim.call_after(2.0, seen.append, "y")
        sim.run(max_events=1)
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
