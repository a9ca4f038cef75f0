"""Tests of the discrete-event engine."""

import pytest

from repro.simulator.engine import PeriodicTimer, SimulationError, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_simultaneous_events_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_schedule_with_args_and_kwargs(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b=0: seen.append((a, b)), 1, 2)
        sim.run()
        assert seen == [(1, 2)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0

    def test_run_until_executes_events_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(until=2.0)
        assert seen == [2]

    def test_run_continues_from_previous_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(until=2.0)
        sim.run(until=4.0)
        assert seen == [1, 3]

    def test_run_advances_clock_to_until_even_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_without_until_leaves_the_clock_at_the_last_event(self):
        sim = Simulator()
        sim.schedule(1.5, lambda: None)
        sim.schedule(4.25, lambda: None)
        sim.run()
        assert sim.now == 4.25

    def test_run_until_in_the_past_never_moves_the_clock_back(self):
        sim = Simulator()
        sim.run(until=5.0)
        sim.run(until=3.0)
        assert sim.now == 5.0

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_delay_override(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), first_delay=0.25)
        timer.start()
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)

    def test_start_is_idempotent(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        timer.start()
        sim.run(until=2.0)
        assert ticks == [1.0, 2.0]
