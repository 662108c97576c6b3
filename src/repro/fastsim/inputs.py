"""Every random input of a kernel run, drawn from one seed.

A seeded kernel run is exact only while each random input keeps its own
stream and its place in that stream. :class:`RoundInputs` is the one
owner of that layout: the kernel makes every draw through it, and the
scalar reference in ``tests/fastsim/test_reference_rounds.py`` draws
through it too instead of restating the layout.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.workloads.models import StationaryZipf

__all__ = ["RoundInputs"]


class RoundInputs:
    """The random inputs of one kernel run, one method per input.

    ``SeedSequence(seed).spawn(5)`` gives one child stream per kind of
    input, so the draws of one kind never shift another's:

    * child 0 — the per-round query counts (:meth:`counts`);
    * child 1 — the default workload's ranks and keys (:meth:`workload`);
    * child 2 — the DHT members (:meth:`members`, each call from the
      start of the stream);
    * child 3 — the churn start mask and the per-round flips
      (:meth:`churn_start`, :meth:`churn_flips`);
    * child 4 — in the order a span draws them: origins
      (:meth:`origins`), turnover uniforms (:meth:`turnover`), then per
      resolution replica-online counts (:meth:`replica_online`) and
      resolve uniforms (:meth:`resolve`).

    :meth:`turnover` and :meth:`resolve` fill the caller's scratch
    buffer ``out``.
    """

    def __init__(self, seed: int) -> None:
        counts, workload, members, churn, resolve = (
            np.random.SeedSequence(seed).spawn(5)
        )
        self._counts = np.random.default_rng(counts)
        self._workload = workload
        self._members = members
        self._churn = np.random.default_rng(churn)
        self._resolve = np.random.default_rng(resolve)

    # --- child 0 ------------------------------------------------------
    def counts(
        self, workload: BatchWorkload, now: float, rounds: int, rate: float
    ) -> np.ndarray:
        """Query counts of the ``rounds`` rounds after ``now``.

        The workload may pin them (trace replay) or modulate the rate
        (diurnal cycles); otherwise they are Poisson at ``rate``.
        """
        counts = workload.fixed_counts(now, rounds)
        if counts is not None:
            return counts
        multipliers = workload.rate_multipliers(now, rounds)
        if multipliers is None:
            return self._counts.poisson(rate, size=rounds)
        return self._counts.poisson(rate * multipliers)

    # --- child 1 ------------------------------------------------------
    def workload(
        self,
        params: ScenarioParameters,
        zipf: Optional[ZipfDistribution] = None,
    ) -> BatchWorkload:
        """The stationary Zipf stream a kernel given no workload draws.

        Each call builds a fresh stream from the start of child 1.
        """
        return StationaryZipf().build(
            zipf or ZipfDistribution(params.n_keys, params.alpha),
            np.random.default_rng(self._workload),
        )

    # --- child 2 ------------------------------------------------------
    def members(self, population: int, count: int) -> np.ndarray:
        """The ``count`` DHT members among ``population`` peers.

        Each call draws from the start of child 2, so every lane of a
        kernel gets the members its run would get alone.
        """
        if not 0 <= count <= population:
            raise ParameterError(
                f"num_members must be in [0, {population}], got {count}"
            )
        return np.random.default_rng(self._members).choice(
            population, size=count, replace=False
        )

    # --- child 3 ------------------------------------------------------
    def churn_start(self, population: int, churn: ChurnConfig) -> np.ndarray:
        """Every peer's liveness at the stationary availability, as a
        mask over ``population`` peers."""
        return self._churn.random(population) < churn.availability

    def churn_flips(self, online: np.ndarray, churn: ChurnConfig) -> np.ndarray:
        """The peers whose state flips this round, as a mask.

        Session and offline durations are exponential, so a peer flips
        within a one-second round with probability ``1 - exp(-1 / mean)``
        of its current state's mean, independently per round: one
        Bernoulli draw per peer keeps the event engine's stationary
        availability and transition rate.
        """
        p_leave = 1.0 - math.exp(-1.0 / churn.mean_session)
        p_return = 1.0 - math.exp(-1.0 / churn.mean_offline)
        draws = self._churn.random(online.size)
        return np.where(online, draws < p_leave, draws < p_return)

    # --- child 4 ------------------------------------------------------
    def origins(self, count: int, population: int) -> np.ndarray:
        """Positions of ``count`` uniform query origins in a pool of
        ``population`` peers.

        One call draws what one call per round would: numpy's bounded
        draws keep the spare half of a 64-bit word in the bit generator's
        state, so consecutive calls concatenate bit-identically.
        """
        return self._resolve.integers(0, population, size=count)

    def turnover(self, out: np.ndarray) -> np.ndarray:
        """Uniforms that decide which live-key queries miss on turnover."""
        return self._resolve.random(out=out)

    def replica_online(
        self, count: int, replication: int, fraction: float
    ) -> np.ndarray:
        """How many of each missing key's ``replication`` content replicas
        are online, for ``count`` keys: Binomial(replication, fraction)."""
        return self._resolve.binomial(replication, fraction, size=count)

    def resolve(self, out: np.ndarray) -> np.ndarray:
        """Uniforms that decide which broadcast searches resolve."""
        return self._resolve.random(out=out)
