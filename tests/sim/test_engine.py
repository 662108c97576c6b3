"""Tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulation


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

    def test_a_cancelled_controller_spends_its_queued_firing(self):
        # The firing queued before the cancel still happens, as a no-op
        # that counts in processed_events; nothing is queued after it.
        sim = Simulation()
        times = []
        controller = sim.every(2.0, lambda: times.append(sim.now))
        sim.run(until=3.0)
        controller.cancel()
        sim.run(until=20.0)
        assert times == [2.0]
        assert sim.processed_events == 2


class TestNonFiniteTimes:
    """A NaN or infinite time never reaches the clock or the queue: a NaN
    compares false with everything, so it slipped past the "not in the
    past" checks, and an infinite one is a time no run reaches."""

    @pytest.mark.parametrize("until", [math.nan, math.inf])
    def test_run_until_rejected(self, until):
        # An empty simulation: with a recurring event queued, a run
        # until inf would never return.
        sim = Simulation()
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert sim.now == 2.0

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_schedule_at_rejected(self, time):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule_at(time, lambda: None)
        assert sim._queue == []

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_schedule_in_rejected(self, delay):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule_in(delay, lambda: None)
        assert sim._queue == []

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_every_rejected(self, interval):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.every(interval, lambda: None)
        assert sim._queue == []


def closure_every(sim, interval, action):
    """``Simulation.every`` as it was before the dispatch loop re-scheduled
    recurring events: a ``fire`` closure that re-schedules itself, which
    makes every simulation with a recurring event a reference cycle. The
    oracle for the property below (verbatim but for the event labels,
    which nothing read and which are gone)."""
    if interval <= 0:
        raise SimulationError(f"interval must be > 0, got {interval}")
    controller = Event(action=action)

    def fire():
        if controller.cancelled:
            return
        action()
        if not controller.cancelled:
            sim.schedule_in(interval, fire)

    sim.schedule_at(sim.now + interval, fire)
    return controller


#: What one firing does: schedule a one-shot event ``delay`` rounds on
#: (0 = later this round), start a recurring one, cancel any event made
#: so far (a fired one-shot included), cancel itself, or nothing.
_step = st.one_of(
    st.tuples(st.just("once"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("every"), st.sampled_from([0.5, 1.0, 1.5, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 31)),
    st.tuples(st.just("cancel_self"), st.just(0)),
    st.tuples(st.just("nothing"), st.just(0)),
)


def _replay(every, initial, program, pauses):
    """Drive one simulation through the script; return what fired, when,
    and ``processed_events`` at each pause."""
    sim = Simulation()
    handles, log = [], []
    steps = iter(program)

    def spawn(step):
        ident = len(handles)

        def action():
            log.append((ident, sim.now))
            apply(next(steps, ("nothing", 0)), ident)

        kind, value = step
        if kind == "once":
            handles.append(sim.schedule_in(value, action))
        else:
            handles.append(every(sim, value, action))

    def apply(step, current):
        kind, value = step
        if kind in ("once", "every"):
            spawn(step)
        elif kind == "cancel":
            handles[value % len(handles)].cancel()
        elif kind == "cancel_self":
            handles[current].cancel()

    for step in initial:
        spawn(step)
    until = 0.0
    for pause in pauses:
        until += pause
        sim.run(until=until)
        log.append(("pause", sim.now, sim.processed_events))
    return log


@given(
    initial=st.lists(
        _step.filter(lambda s: s[0] in ("once", "every")),
        min_size=1, max_size=5,
    ),
    program=st.lists(_step, max_size=40),
    pauses=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
                    min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_every_fires_as_the_closure_it_replaced(initial, program, pauses):
    """Same firings, in the same order, at the same ``now``, and the same
    ``processed_events`` — one-shot and recurring events mixed, scheduled
    at the current time, cancelled from inside actions, run in pieces."""
    ours = _replay(
        lambda sim, interval, action: sim.every(interval, action),
        initial, program, pauses,
    )
    assert ours == _replay(closure_every, initial, program, pauses)
