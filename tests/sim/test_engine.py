"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulation


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulation().now == 0.0

    def test_schedule_at_fires_at_time(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [5.0]

    def test_schedule_in_is_relative(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(3.0, lambda: sim.schedule_in(2.0, lambda: fired.append(sim.now)))
        sim.run(until=10.0)
        assert fired == [5.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule_in(-1.0, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule_at(3.0, lambda: order.append(3))
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(2.0, lambda: order.append(2))
        sim.run(until=10.0)
        assert order == [1, 2, 3]

    def test_same_time_events_fire_fifo(self):
        sim = Simulation()
        order = []
        for i in range(10):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.run(until=1.0)
        assert order == list(range(10))

    def test_event_scheduled_at_current_time_fires_same_run(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(2.0, lambda: sim.schedule_at(2.0, lambda: fired.append("x")))
        sim.run(until=2.0)
        assert fired == ["x"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run(until=5.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulation()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run(until=2.0)
        assert sim.processed_events == 0


class TestRun:
    def test_run_advances_clock_to_until(self):
        sim = Simulation()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_backwards_rejected(self):
        sim = Simulation()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=3.0)

    def test_events_beyond_until_stay_pending(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == []
        assert len(sim._queue) == 1
        sim.run(until=10.0)
        assert fired == [1]

    def test_event_at_exactly_until_fires(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]

    def test_processed_events_counter(self):
        sim = Simulation()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run(until=10.0)
        assert sim.processed_events == 3

    def test_run_not_reentrant(self):
        sim = Simulation()
        errors = []

        def nested():
            try:
                sim.run(until=10.0)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, nested)
        sim.run(until=5.0)
        assert len(errors) == 1


class TestEvery:
    def test_recurring_fires_at_interval(self):
        sim = Simulation()
        times = []
        sim.every(2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_cancelling_controller_stops_recurrence(self):
        sim = Simulation()
        times = []
        controller = sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=3.0)
        controller.cancel()
        sim.run(until=10.0)
        assert times == [1.0, 2.0, 3.0]

    def test_cancel_from_inside_action(self):
        sim = Simulation()
        times = []

        def action():
            times.append(sim.now)
            if len(times) == 2:
                controller.cancel()

        controller = sim.every(1.0, action)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().every(0.0, lambda: None)

