"""Churn: peers going on- and offline.

P2P clients are "extremely transient in nature" [ChRa03]; the paper's
maintenance-cost term ``cRtn`` exists precisely because churn forces peers
to keep probing their routing tables. This module drives a
:class:`~repro.net.node.PeerPopulation` through on/offline cycles on the
round clock of :class:`~repro.sim.engine.Simulation`.

Session and offline durations are exponentially distributed by default
(the memoryless baseline used throughout the P2P literature); any
``rng.<dist>``-style sampler can be plugged in for heavier-tailed
behaviour. The long-run fraction of online peers converges to
``mean_session / (mean_session + mean_offline)``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError, require_finite
from repro.net.node import PeerId, PeerPopulation

__all__ = ["ChurnConfig", "ChurnProcess"]

@dataclass(frozen=True)
class ChurnConfig:
    """Churn parameters.

    Attributes
    ----------
    mean_session:
        Average online time per session, seconds. Gnutella measurements put
        median sessions at tens of minutes; the default is 30 min.
    mean_offline:
        Average offline time between sessions, seconds.
    enabled:
        Always ``True`` and not an argument: no churn is ``churn=None``.
        It stays a field only so that the store keys built from a config
        — and so existing stores — do not change.
    """

    mean_session: float = 1800.0
    mean_offline: float = 600.0
    enabled: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        for name in ("mean_session", "mean_offline"):
            value = getattr(self, name)
            require_finite(name, value, 0.0)
            if value <= 0:
                raise ParameterError(f"{name} must be > 0, got {value}")

    @property
    def availability(self) -> float:
        """Long-run fraction of time a peer is online."""
        return self.mean_session / (self.mean_session + self.mean_offline)


class ChurnProcess:
    """On/offline transitions for every peer, from time 0.

    Each peer alternates exponentially-distributed online sessions and
    offline gaps. The due transitions are one heap of ``(time, sequence,
    peer)`` tuples; equal times apply in the order they were drawn.
    """

    def __init__(
        self,
        population: PeerPopulation,
        config: ChurnConfig,
        rng: np.random.Generator,
    ) -> None:
        self.population = population
        self.config = config
        self.rng = rng
        self._due: list[tuple[float, int, PeerId]] = []
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Initialise liveness and draw the first transition per peer.

        Each peer starts online with the stationary availability, so the
        network starts in steady state rather than all-online.
        """
        fraction = self.config.availability
        for peer_id in range(len(self.population)):
            online = bool(self.rng.random() < fraction)
            self.population.set_online(peer_id, online)
            heapq.heappush(self._due, self._next(0.0, peer_id))

    def _next(self, now: float, peer_id: PeerId) -> tuple[float, int, PeerId]:
        """The peer's next transition, one session or gap after ``now``."""
        online = self.population.is_online(peer_id)
        mean = self.config.mean_session if online else self.config.mean_offline
        delay = float(self.rng.exponential(mean))
        return (now + delay, next(self._sequence), peer_id)

    def run_until(self, time: float) -> int:
        """Apply every transition due at or before ``time``, in time order;
        return how many were applied."""
        due = self._due
        population = self.population
        applied = 0
        while due and due[0][0] <= time:
            when, _, peer_id = due[0]
            population.set_online(peer_id, not population.is_online(peer_id))
            heapq.heapreplace(due, self._next(when, peer_id))
            applied += 1
        return applied
