"""Tests for the round clock.

The event list it replaced (a heap of cancellable, recurring events, one
closure per churn transition) is kept below, verbatim but for the class
names and ``attach`` taking its ``RoutingMaintenance`` as an argument,
as the oracle: on any population, churn, seed and run of ``advance``
steps the clock gives the same online sets, ``now``, transition counts
and MAINTENANCE totals.
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dht.maintenance import RoutingMaintenance
from repro.dht.pgrid import PGridDht
from repro.errors import ParameterError, SimulationError
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.node import PeerId, PeerPopulation
from repro.obs.clock import perf_counter
from repro.sim.engine import Simulation, whole_rounds
from repro.sim.metrics import MessageCategory, MessageMetrics


# ----------------------------------------------------------------------
# The replaced event list: Simulation, ChurnProcess and
# RoutingMaintenance.attach as they were.
# ----------------------------------------------------------------------
@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    event: "Event" = field(compare=False)


@dataclass
class Event:
    """A scheduled callback. Returned by the scheduling API for cancellation."""

    action: Callable[[], None]
    cancelled: bool = False
    #: Rounds between firings of a recurring event; ``None`` fires once.
    interval: Optional[float] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True


class EventListSimulation:
    """Event-list simulation with float time measured in rounds (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in rounds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire at absolute ``time``.

        Scheduling in the past, or at a NaN or infinite time, raises
        :class:`SimulationError`; scheduling at the current time is
        allowed and fires later within the same round.
        """
        if not self._now <= time < math.inf:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now}; "
                f"a time is finite)"
            )
        event = Event(action=action)
        self._push(time, event)
        return event

    def schedule_in(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire ``delay`` rounds from now."""
        if not 0 <= delay < math.inf:
            raise SimulationError(
                f"delay must be a finite number >= 0, got {delay}"
            )
        return self.schedule_at(self._now + delay, action)

    def every(self, interval: float, action: Callable[[], None]) -> Event:
        """Run ``action`` every ``interval`` rounds until cancelled.

        Returns the *controller* event; calling :meth:`Event.cancel` on it
        stops all future firings. The first firing happens one interval
        from now.
        """
        if not 0 < interval < math.inf:
            raise SimulationError(
                f"interval must be a finite number > 0, got {interval}"
            )
        controller = Event(action=action, interval=interval)
        self._push(self._now + interval, controller)
        return controller

    def _push(self, time: float, event: Event) -> None:
        heapq.heappush(
            self._queue, _ScheduledEvent(time, next(self._sequence), event)
        )

    def run(self, until: float) -> None:
        """Process events in time order until ``until`` (inclusive), a
        finite time no earlier than now."""
        if self._running:
            raise SimulationError("run() is not re-entrant")
        if not self._now <= until < math.inf:
            raise SimulationError(
                f"cannot run until t={until} (now is t={self._now}; "
                f"a time is finite)"
            )
        self._running = True
        # Telemetry never touches the event order or the clock; the
        # dispatch loop itself is unchanged whether it is on or off.
        started = perf_counter() if obs.enabled() else None
        processed_here = 0
        try:
            while self._queue and self._queue[0].time <= until:
                scheduled = heapq.heappop(self._queue)
                self._now = scheduled.time
                event = scheduled.event
                if not event.cancelled:
                    event.action()
                    # Re-scheduled after the action runs, so what the
                    # action scheduled for the next firing's time fires
                    # before it.
                    if event.interval is not None and not event.cancelled:
                        self._push(self._now + event.interval, event)
                elif event.interval is None:
                    continue
                # A recurring event cancelled while a firing was queued
                # spends that firing as a no-op, which counts.
                self._processed += 1
                processed_here += 1
            self._now = until
        finally:
            self._running = False
            if started is not None:
                obs.add_duration("engine.run", perf_counter() - started)
                obs.count("engine.events", processed_here)


class EventListChurnProcess:
    """Schedules on/offline transitions for every peer.

    Each peer alternates exponentially-distributed online sessions and
    offline gaps. The simulation is held weakly: its queued transitions
    refer to this process, so a strong reference back would make the
    pair a cycle that only the cyclic collector frees.
    """

    def __init__(
        self,
        simulation: EventListSimulation,
        population: PeerPopulation,
        config: ChurnConfig,
        rng: np.random.Generator,
    ) -> None:
        self._simulation = weakref.ref(simulation)
        self.population = population
        self.config = config
        self.rng = rng
        self.transitions = 0

    def start(self) -> None:
        """Initialise liveness and schedule the first transition per peer.

        Each peer starts online with the stationary availability, so the
        network starts in steady state rather than all-online.
        """
        fraction = self.config.availability
        for peer_id in range(len(self.population)):
            online = bool(self.rng.random() < fraction)
            self.population.set_online(peer_id, online)
            self._schedule_next(peer_id)

    def _schedule_next(self, peer_id: PeerId) -> None:
        online = self.population.is_online(peer_id)
        mean = self.config.mean_session if online else self.config.mean_offline
        delay = float(self.rng.exponential(mean))
        self._simulation().schedule_in(
            delay, lambda: self._transition(peer_id)
        )

    def _transition(self, peer_id: PeerId) -> None:
        new_state = not self.population.is_online(peer_id)
        self.population.set_online(peer_id, new_state)
        self.transitions += 1
        self._schedule_next(peer_id)


def attach(maintenance: RoutingMaintenance, simulation: EventListSimulation):
    """Schedule recurring sweeps on a simulation; returns the controller
    event (cancel it to stop maintenance)."""
    return simulation.every(1.0, maintenance.run_sweep)


# ----------------------------------------------------------------------
# The clock against the event list
# ----------------------------------------------------------------------
class _World:
    """A population, a P-Grid over part of it, churn and (optionally)
    maintenance, on either engine; built as ``PdhtNetwork`` builds them."""

    def __init__(self, clock, peers, members, config, seed, maintained):
        self.population = PeerPopulation(peers)
        self.metrics = MessageMetrics()
        dht = PGridDht(self.population, self.metrics)
        dht.join_all(range(members))
        maintenance = RoutingMaintenance(dht, env=0.3)
        rng = np.random.default_rng(seed)
        if clock:
            self.churn = ChurnProcess(self.population, config, rng)
            self.churn.start()
            self.sim = Simulation(
                self.churn, maintenance.run_sweep if maintained else None
            )
        else:
            self.sim = EventListSimulation()
            if maintained:
                attach(maintenance, self.sim)
            self.churn = EventListChurnProcess(
                self.sim, self.population, config, rng
            )
            self.churn.start()
        self.start_epoch = self.population.liveness_epoch

    def facts(self, transitions: int) -> tuple:
        return (
            self.population.online_ids,
            self.sim.now,
            transitions,
            self.sim.processed_events,
            self.metrics.total(MessageCategory.MAINTENANCE),
        )


@given(
    peers=st.integers(2, 40),
    member_share=st.floats(0.1, 1.0),
    mean_session=st.sampled_from([0.2, 0.7, 1.0, 3.5, 40.0]),
    mean_offline=st.sampled_from([0.1, 0.5, 2.0, 9.0]),
    seed=st.integers(0, 2**32 - 1),
    maintained=st.booleans(),
    steps=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.5]),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_clock_runs_as_the_event_list_it_replaced(
    peers, member_share, mean_session, mean_offline, seed, maintained, steps
):
    config = ChurnConfig(mean_session=mean_session, mean_offline=mean_offline)
    members = max(2, round(peers * member_share))
    args = (peers, members, config, seed, maintained)
    ours, reference = _World(True, *args), _World(False, *args)
    assert ours.facts(0) == reference.facts(0)
    for step in steps:
        ours.sim.run(until=ours.sim.now + step)
        reference.sim.run(until=reference.sim.now + step)
        applied = ours.population.liveness_epoch - ours.start_epoch
        assert ours.facts(applied) == reference.facts(
            reference.churn.transitions
        )


class _WholeDelays:
    """An rng stand-in: every peer starts online and every session and gap
    lasts exactly ``delay`` rounds."""

    def __init__(self, delay: float = 1.0) -> None:
        self.delay = delay

    def random(self) -> float:
        return 0.0

    def exponential(self, mean: float) -> float:
        return self.delay


def _whole_round_churn(round_hook, delay=1.0):
    """A clock over three peers that all flip every ``delay`` rounds."""
    population = PeerPopulation(3)
    churn = ChurnProcess(
        population, ChurnConfig(mean_session=1.0, mean_offline=1.0),
        _WholeDelays(delay),
    )
    churn.start()
    return Simulation(churn, round_hook), population


def test_transition_due_at_a_whole_round_lands_before_its_sweep():
    """The one ordering the clock changes. Transitions due exactly at round
    k now apply before round k's hook; the event list ordered the two by
    sequence number, and maintenance, attached before churn started,
    always came first. Exponential delays hit a whole round with
    probability 0, so no seeded run sees the difference."""
    config = ChurnConfig(mean_session=1.0, mean_offline=1.0)

    seen = []
    sim, population = _whole_round_churn(
        lambda: seen.append(population.sorted_online_ids())
    )
    sim.run(until=2.0)
    assert seen == [(), (0, 1, 2)]

    population = PeerPopulation(3)
    reference_seen = []
    reference = EventListSimulation()
    reference.every(
        1.0, lambda: reference_seen.append(population.sorted_online_ids())
    )
    EventListChurnProcess(reference, population, config, _WholeDelays()).start()
    reference.run(until=2.0)
    assert reference_seen == [(0, 1, 2), ()]
    assert sim.processed_events == reference.processed_events == 8


# ----------------------------------------------------------------------
# The clock itself
# ----------------------------------------------------------------------
class TestRun:
    def test_starts_at_time_zero(self):
        assert Simulation().now == 0.0

    def test_run_advances_clock_to_until(self):
        sim = Simulation()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_backwards_rejected(self):
        sim = Simulation()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=3.0)

    def test_hook_runs_once_per_whole_round_in_pieces(self):
        times = []
        sim = Simulation(round_hook=lambda: times.append(sim.now))
        for until in (0.5, 1.0, 1.0, 2.75, 3.0, 7.5):
            sim.run(until=until)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert sim.processed_events == 7
        assert sim.now == 7.5

    def test_cleared_hook_stops(self):
        times = []
        sim = Simulation(round_hook=lambda: times.append(sim.now))
        sim.run(until=3.0)
        sim.round_hook = None
        sim.run(until=10.0)
        assert times == [1.0, 2.0, 3.0]
        assert sim.processed_events == 3

    def test_event_at_exactly_until_fires(self):
        sim, population = _whole_round_churn(round_hook=None)
        sim.run(until=0.5)
        assert population.sorted_online_ids() == (0, 1, 2)
        sim.run(until=1.0)
        assert population.sorted_online_ids() == ()
        assert sim.processed_events == 3

    def test_events_beyond_until_stay_pending(self):
        sim, population = _whole_round_churn(round_hook=None, delay=7.0)
        sim.run(until=5.0)
        assert population.sorted_online_ids() == (0, 1, 2)
        assert sim.processed_events == 0
        sim.run(until=10.0)
        assert population.sorted_online_ids() == ()
        assert sim.processed_events == 3

    def test_processed_events_counter(self):
        sim, _ = _whole_round_churn(round_hook=lambda: None)
        sim.run(until=3.5)
        # Three rounds of three transitions and one hook each.
        assert sim.processed_events == 12

    def test_run_to_now_runs_nothing(self):
        sim, population = _whole_round_churn(round_hook=lambda: None)
        sim.run(until=2.0)
        before = (sim.processed_events, population.liveness_epoch)
        sim.run(until=2.0)
        assert (sim.processed_events, population.liveness_epoch) == before
        assert sim.now == 2.0

    def test_steps_within_a_round_run_no_hook(self):
        times = []
        sim = Simulation(round_hook=lambda: times.append(sim.now))
        for until in (0.1, 0.4, 0.99):
            sim.run(until=until)
        assert times == []
        assert sim.processed_events == 0

    def test_run_from_a_fractional_time_visits_the_next_whole_round(self):
        times = []
        sim = Simulation(round_hook=lambda: times.append(sim.now))
        sim.run(until=0.5)
        sim.run(until=1.5)
        assert times == [1.0]
        sim.run(until=2.25)
        assert times == [1.0, 2.0]

    def test_hook_set_after_construction_runs(self):
        times = []
        sim = Simulation()
        sim.run(until=2.0)
        sim.round_hook = lambda: times.append(sim.now)
        sim.run(until=4.0)
        assert times == [3.0, 4.0]
        assert sim.processed_events == 2

    def test_hook_sees_the_churn_applied_since_the_last_round(self):
        seen = []
        sim, population = _whole_round_churn(
            lambda: seen.append(population.sorted_online_ids()), delay=0.5
        )
        sim.run(until=2.0)
        # Each peer flips at 0.5 and 1.0 before the first hook, and at 1.5
        # and 2.0 before the second.
        assert seen == [(0, 1, 2), (0, 1, 2)]
        sim.run(until=2.5)
        assert population.sorted_online_ids() == ()
        assert sim.processed_events == 3 * 5 + 2

    def test_a_refused_run_changes_nothing(self):
        times = []
        sim, population = _whole_round_churn(
            lambda: times.append(sim.now), delay=0.5
        )
        sim.run(until=1.5)
        before = (sim.now, sim.processed_events, population.liveness_epoch)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert (sim.now, sim.processed_events, population.liveness_epoch) == (
            before
        )
        assert times == [1.0]


class TestNonFiniteTimes:
    """A NaN or infinite time never reaches the clock: a NaN compares
    false with everything, so it slipped past the "not in the past"
    check, and an infinite one is a time no run reaches."""

    @pytest.mark.parametrize("until", [math.nan, math.inf])
    def test_run_until_rejected(self, until):
        sim = Simulation(round_hook=lambda: None)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert sim.now == 2.0

    @pytest.mark.parametrize("until", [-1.0, -math.inf])
    def test_time_before_zero_rejected(self, until):
        sim = Simulation(round_hook=lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert (sim.now, sim.processed_events) == (0.0, 0)


class TestWholeRounds:
    def test_whole_duration_is_its_round_count(self):
        rounds = whole_rounds(3.0)
        assert rounds == 3 and type(rounds) is int

    @pytest.mark.parametrize(
        "duration", [0.0, -2.0, 2.5, math.nan, math.inf, True]
    )
    def test_duration_that_is_no_whole_positive_round_count_rejected(
        self, duration
    ):
        with pytest.raises(ParameterError):
            whole_rounds(duration)
