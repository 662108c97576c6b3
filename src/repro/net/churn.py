"""Churn: peers going on- and offline.

P2P clients are "extremely transient in nature" [ChRa03]; the paper's
maintenance-cost term ``cRtn`` exists precisely because churn forces peers
to keep probing their routing tables. This module drives a
:class:`~repro.net.node.PeerPopulation` through on/offline cycles inside a
:class:`~repro.sim.engine.Simulation`.

Session and offline durations are exponentially distributed by default
(the memoryless baseline used throughout the P2P literature); any
``rng.<dist>``-style sampler can be plugged in for heavier-tailed
behaviour. The long-run fraction of online peers converges to
``mean_session / (mean_session + mean_offline)``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError, require_finite
from repro.net.node import PeerId, PeerPopulation
from repro.sim.engine import Simulation

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
    """Schedules on/offline transitions for every peer.

    Each peer alternates exponentially-distributed online sessions and
    offline gaps. The simulation is held weakly: its queued transitions
    refer to this process, so a strong reference back would make the
    pair a cycle that only the cyclic collector frees.
    """

    def __init__(
        self,
        simulation: Simulation,
        population: PeerPopulation,
        config: ChurnConfig,
        rng: np.random.Generator,
    ) -> None:
        self._simulation = weakref.ref(simulation)
        self.population = population
        self.config = config
        self.rng = rng
        self.transitions = 0

    # ------------------------------------------------------------------
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
