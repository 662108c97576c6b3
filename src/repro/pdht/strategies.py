"""Simulated indexing strategies: the three systems of Fig. 1 plus the
Section 5 selection algorithm, all running on the same substrate.

Each strategy owns a full :class:`~repro.pdht.network.PdhtNetwork` and
drives a query workload through it for a configured number of rounds,
producing a :class:`StrategyReport` whose per-category message rates are
directly comparable to the analytical Eq. 11-13/17 costs:

* :class:`NoIndexStrategy` — every query broadcast; DHT and maintenance
  disabled (Eq. 12);
* :class:`IndexAllStrategy` — every key pre-indexed with infinite TTL,
  proactive updates at ``fUpd`` (Eq. 11);
* :class:`PartialIdealStrategy` — the Section 4 oracle: the top
  ``maxRank`` keys are pre-indexed, peers *know* which keys those are, and
  query the index only for them (Eq. 13);
* :class:`PartialSelectionStrategy` — the real Section 5 algorithm
  (Eq. 17): index-first search, broadcast on miss, TTL insertion.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import solve_threshold
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.net.churn import ChurnConfig
from repro.obs.clock import perf_counter
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.sim.metrics import MessageCategory

if TYPE_CHECKING:
    from repro.fastsim.workload import BatchWorkload

__all__ = [
    "StrategyReport",
    "SimulatedStrategy",
    "NoIndexStrategy",
    "IndexAllStrategy",
    "PartialIdealStrategy",
    "PartialSelectionStrategy",
    "STRATEGY_CLASSES",
    "STRATEGY_NAMES",
]


@dataclass
class StrategyReport:
    """Measured outcome of one strategy run."""

    strategy: str
    params: ScenarioParameters
    duration: float
    queries: int = 0
    answered: int = 0
    index_hits: int = 0
    messages_by_category: dict[MessageCategory, float] = field(default_factory=dict)
    mean_index_size: float = 0.0
    index_size_series: list[tuple[float, int]] = field(default_factory=list)
    hit_rate_series: list[tuple[float, float]] = field(default_factory=list)

    @property
    def total_messages(self) -> float:
        return sum(self.messages_by_category.values())

    @property
    def messages_per_second(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.total_messages / self.duration

    @property
    def hit_rate(self) -> float:
        """Empirical pIndxd."""
        if self.queries == 0:
            return 0.0
        return self.index_hits / self.queries

    @property
    def success_rate(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.answered / self.queries

    def rate_of(self, category: MessageCategory) -> float:
        if self.duration <= 0:
            return 0.0
        return self.messages_by_category.get(category, 0.0) / self.duration


class SimulatedStrategy(abc.ABC):
    """Common driver: substrate construction, workload loop, reporting."""

    name: str = "abstract"

    def __init__(
        self,
        params: ScenarioParameters,
        config: Optional[PdhtConfig] = None,
        seed: int = 0,
        churn: Optional[ChurnConfig] = None,
        workload: Optional[BatchWorkload] = None,
    ) -> None:
        self.params = params
        base_config = config or PdhtConfig.from_scenario(params)
        self.config = self._adjust_config(base_config)
        # Telemetry names each phase of a run under the caller's span; it
        # reads the clock around the phase and never a random stream.
        with obs.span("strategy.build"):
            self.network = PdhtNetwork(
                params,
                self.config,
                seed=seed,
                num_active_peers=self._active_peers(),
                churn=churn,
            )
        if workload is None:
            # Imported here: the stream classes live in repro.fastsim,
            # whose kernel imports this module.
            from repro.workloads.models import StationaryZipf

            workload = StationaryZipf().build(
                ZipfDistribution(params.n_keys, params.alpha),
                self.network.streams.get("queries"),
            )
        self.workload = workload
        if self.workload.n_keys != params.n_keys:
            raise ParameterError(
                f"workload covers {self.workload.n_keys} keys, "
                f"scenario has {params.n_keys}"
            )
        self._rng = self.network.streams.get("strategy")
        self._update_debt = 0.0
        self._prepared = False

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _adjust_config(self, config: PdhtConfig) -> PdhtConfig:
        """Strategy-specific config tweaks (e.g. infinite TTL)."""
        return config

    def _active_peers(self) -> Optional[int]:
        """DHT size for this strategy (None = network's own default)."""
        return None

    def _prepare_index(self) -> None:
        """Pre-populate the index (strategies that start from a built one)."""

    def _updates_per_round(self) -> float:
        """Expected proactive index updates per round (Eq. 9 traffic)."""
        return 0.0

    @abc.abstractmethod
    def _handle(self, origin: int, key: str, rank: int) -> tuple[bool, bool]:
        """Answer one query; returns ``(answered, via_index)``."""

    # ------------------------------------------------------------------
    def key_name(self, key_index: int) -> str:
        """Stable application key string for a key-universe index."""
        return f"key-{key_index:06d}"

    def prepare(self) -> None:
        """Publish content replicas and build the initial index."""
        if self._prepared:
            return
        with obs.span("strategy.prepare"):
            items = {
                self.key_name(i): f"value-{i}"
                for i in range(self.params.n_keys)
            }
            self.network.publish_all(items)
            self._prepare_index()
            # Preparation traffic is not part of the steady-state comparison.
            self.network.metrics.reset(now=self.network.simulation.now)
        self._prepared = True

    def run(self, duration: float, window: float = 0.0) -> StrategyReport:
        """Drive the workload for ``duration`` rounds.

        ``window > 0`` records index-size and hit-rate samples every
        ``window`` rounds (for the adaptivity experiments).
        """
        if duration <= 0:
            raise ParameterError(f"duration must be > 0, got {duration}")
        self.prepare()
        report = StrategyReport(
            strategy=self.name, params=self.params, duration=duration
        )
        sim = self.network.simulation
        start = sim.now
        rate = self.params.network_query_rate
        next_window = window
        window_queries = 0
        window_hits = 0

        def close_window(elapsed: float) -> None:
            nonlocal window_queries, window_hits
            size = self.network.distinct_indexed_keys()
            report.index_size_series.append((elapsed, size))
            rate = window_hits / window_queries if window_queries else 0.0
            report.hit_rate_series.append((elapsed, rate))
            window_queries = window_hits = 0

        rounds = int(round(duration))
        profiled = obs.enabled()
        query_seconds = 0.0
        for _ in range(rounds):
            self.network.advance(1.0)  # reports itself as ``engine.run``
            if profiled:
                round_started = perf_counter()
            now = sim.now
            # Queries this round: Poisson around the network-wide rate,
            # which the workload may modulate (e.g. a diurnal cycle).
            count = int(
                self._rng.poisson(rate * self.workload.rate_multiplier(now))
            )
            for rank, key_index in self.workload.draw(now, count):
                origin = self.network.random_online_peer()
                key = self.key_name(key_index)
                answered, via_index = self._handle(origin, key, rank)
                report.queries += 1
                window_queries += 1
                if answered:
                    report.answered += 1
                if via_index:
                    report.index_hits += 1
                    window_hits += 1
            # Proactive updates (indexAll / partial-ideal only).
            self._update_debt += self._updates_per_round()
            while self._update_debt >= 1.0:
                self._update_debt -= 1.0
                self._apply_random_update()
            if window > 0 and now - start >= next_window:
                close_window(now - start)
                next_window += window
            if profiled:
                query_seconds += perf_counter() - round_started
        if profiled:
            obs.add_duration("strategy.queries", query_seconds, n=report.queries)

        # Flush the trailing partial window (duration % window != 0) so
        # the tail queries reach hit_rate_series — identical to the
        # fastsim WindowRecorder's end-of-run flush.
        if window > 0 and sim.now - start > next_window - window:
            close_window(sim.now - start)

        report.messages_by_category = self.network.metrics.totals_by_category()
        if report.index_size_series:
            report.mean_index_size = sum(
                s for _, s in report.index_size_series
            ) / len(report.index_size_series)
        else:
            report.mean_index_size = float(self.network.distinct_indexed_keys())
        return report

    # ------------------------------------------------------------------
    def _apply_random_update(self) -> None:
        key_index = int(self._rng.integers(0, self.params.n_keys))
        key = self.key_name(key_index)
        if self._is_indexed_key(key_index):
            self.network.proactive_update(key, f"value-{key_index}-v2")

    def _is_indexed_key(self, key_index: int) -> bool:
        """Whether a key participates in proactive updates."""
        return True


class NoIndexStrategy(SimulatedStrategy):
    """Every query answered by broadcast search (Eq. 12)."""

    name = "noIndex"

    def _active_peers(self) -> Optional[int]:
        return 2  # minimal DHT, immediately disabled

    def _adjust_config(self, config: PdhtConfig) -> PdhtConfig:
        return config.with_ttl(0.0)

    def _prepare_index(self) -> None:
        self.network.disable_maintenance()

    def _handle(self, origin: int, key: str, rank: int) -> tuple[bool, bool]:
        walk = self.network.walker.search(origin, key)
        return walk.found, False


class IndexAllStrategy(SimulatedStrategy):
    """Every key indexed, with proactive updates (Eq. 11)."""

    name = "indexAll"

    def _active_peers(self) -> Optional[int]:
        return self.params.active_peers_for(self.params.n_keys)

    def _adjust_config(self, config: PdhtConfig) -> PdhtConfig:
        return config.with_ttl(float("inf"))

    def _prepare_index(self) -> None:
        self.network.preload_index_all(
            {self.key_name(i): f"value-{i}" for i in range(self.params.n_keys)}
        )

    def _updates_per_round(self) -> float:
        return self.params.n_keys * self.params.update_freq

    def _handle(self, origin: int, key: str, rank: int) -> tuple[bool, bool]:
        outcome = self.network.query(origin, key)
        return outcome.found, outcome.via_index


class PartialIdealStrategy(SimulatedStrategy):
    """Section 4's oracle: top-``maxRank`` keys indexed, peers know which
    keys are indexed and never search the index for the rest (Eq. 13)."""

    name = "partialIdeal"

    def _adjust_config(self, config: PdhtConfig) -> PdhtConfig:
        return config.with_ttl(float("inf"))

    def _active_peers(self) -> Optional[int]:
        max_rank = solve_threshold(self.params).max_rank
        return max(2, self.params.active_peers_for(max_rank))

    def _prepare_index(self) -> None:
        max_rank = solve_threshold(self.params).max_rank
        indexed = map(self.workload.key_for_rank, range(1, max_rank + 1))
        self.network.preload_index_all(
            {self.key_name(i): f"value-{i}" for i in indexed}
        )
        self._indexed_ranks = max_rank

    def _updates_per_round(self) -> float:
        return self._indexed_ranks * self.params.update_freq

    def _is_indexed_key(self, key_index: int) -> bool:
        # Under the stationary workload, rank == identity permutation at
        # preparation time; re-check through the workload mapping.
        return True

    def _handle(self, origin: int, key: str, rank: int) -> tuple[bool, bool]:
        if rank <= self._indexed_ranks:
            outcome = self.network.query(origin, key)
            return outcome.found, outcome.via_index
        walk = self.network.walker.search(origin, key)
        return walk.found, False


class PartialSelectionStrategy(SimulatedStrategy):
    """The decentralized Section 5 selection algorithm (Eq. 17)."""

    name = "partialSelection"

    def _handle(self, origin: int, key: str, rank: int) -> tuple[bool, bool]:
        outcome = self.network.query(origin, key)
        return outcome.found, outcome.via_index

    @property
    def selection_stats(self):
        """The network's selection bookkeeping (hits, reinsertions, ...)."""
        return self.network.policy.stats


#: Canonical strategy registry (Fig. 1 order) — the single source of the
#: name->class association for the experiment facade and the fastsim kernel.
STRATEGY_CLASSES: dict[str, type[SimulatedStrategy]] = {
    cls.name: cls
    for cls in (
        NoIndexStrategy,
        IndexAllStrategy,
        PartialIdealStrategy,
        PartialSelectionStrategy,
    )
}

STRATEGY_NAMES: tuple[str, ...] = tuple(STRATEGY_CLASSES)
