"""A minimal, deterministic discrete-event simulation engine.

Design notes
------------
* Time is a non-negative float number of *rounds*; the paper fixes one round
  to one second, so times read as seconds.
* Events scheduled for the same time fire in scheduling order (FIFO via a
  monotonically increasing sequence number), which keeps runs deterministic
  under a fixed seed.
* Handlers are plain callables. A handler may schedule further events,
  including at the current time (they run later the same round).
* Recurring processes are expressed with :meth:`Simulation.every`: the
  dispatch loop re-schedules the recurring event after each firing until
  it is cancelled. No scheduled callback refers back to the simulation,
  so a dropped simulation is freed by reference counting alone.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.obs.clock import perf_counter
from repro.errors import ParameterError, SimulationError, require_finite

__all__ = ["Event", "Simulation", "whole_rounds"]


def whole_rounds(duration: float) -> int:
    """The number of rounds a run of ``duration`` steps through.

    Both engines' drivers step whole rounds, so a fractional duration
    would report rates over time that was never simulated: it is refused,
    as are NaN, ``inf`` and booleans.
    """
    require_finite("duration", duration, 0.0)
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")
    if duration != round(duration):
        raise ParameterError(
            f"duration must be a whole number of rounds, got {duration}"
        )
    return int(duration)


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


class Simulation:
    """Event-list simulation with float time measured in rounds (seconds).

    Examples
    --------
    >>> sim = Simulation()
    >>> fired = []
    >>> _ = sim.schedule_at(5.0, lambda: fired.append(sim.now))
    >>> sim.run(until=10.0)
    >>> fired
    [5.0]
    """

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

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
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
