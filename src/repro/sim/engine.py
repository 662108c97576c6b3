"""The event substrate's clock: whole rounds plus one heap of churn
transitions.

Design notes
------------
* Time is a non-negative float number of *rounds*; the paper fixes one round
  to one second, so times read as seconds.
* The substrate has two timed processes: churn transitions at real-valued
  times (:class:`~repro.net.churn.ChurnProcess` keeps them in its own heap)
  and one hook per whole round (the routing-maintenance sweep of Eq. 8).
* :meth:`Simulation.run` visits each whole round up to ``until``: it
  applies the churn transitions due by that round, then runs the round
  hook; finally it applies the transitions due by ``until``. A transition
  due exactly at a whole round lands before that round's hook.
* Nothing the clock holds refers back to it, so a dropped simulation is
  freed by reference counting alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.obs.clock import perf_counter
from repro.errors import ParameterError, SimulationError, require_finite

if TYPE_CHECKING:
    from repro.net.churn import ChurnProcess

__all__ = ["Simulation", "whole_rounds"]


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


class Simulation:
    """A round clock: float time in rounds (seconds), a churn process and
    a hook run once per whole round.

    ``processed_events`` counts the churn transitions applied and the
    round hooks run.

    Examples
    --------
    >>> fired = []
    >>> sim = Simulation(round_hook=lambda: fired.append(sim.now))
    >>> sim.run(until=2.5)
    >>> fired, sim.now
    ([1.0, 2.0], 2.5)
    """

    def __init__(
        self,
        churn: Optional[ChurnProcess] = None,
        round_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self._now = 0.0
        self._processed = 0
        self.churn = churn
        #: Run at every whole round, after that round's churn; ``None``
        #: runs nothing.
        self.round_hook = round_hook

    @property
    def now(self) -> float:
        """Current simulation time in rounds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Churn transitions applied plus round hooks run so far."""
        return self._processed

    def run(self, until: float) -> None:
        """Advance the clock to ``until`` (inclusive), a finite time no
        earlier than now."""
        if not self._now <= until < math.inf:
            raise SimulationError(
                f"cannot run until t={until} (now is t={self._now}; "
                f"a time is finite)"
            )
        # Telemetry never touches the order or the clock.
        started = perf_counter() if obs.enabled() else None
        churn, hook = self.churn, self.round_hook
        processed = 0
        for whole in range(int(self._now) + 1, int(until) + 1):
            self._now = float(whole)
            if churn is not None:
                processed += churn.run_until(self._now)
            if hook is not None:
                hook()
                processed += 1
        if churn is not None:
            processed += churn.run_until(until)
        self._now = until
        self._processed += processed
        if started is not None:
            obs.add_duration("engine.run", perf_counter() - started)
            obs.count("engine.events", processed)
