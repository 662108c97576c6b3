"""The event engine's runner for the three systems of Fig. 1 plus the
Section 5 selection algorithm, all running on the same substrate.

A :class:`SimulatedStrategy` owns a full
:class:`~repro.pdht.network.PdhtNetwork` and drives a query workload
through it for a configured number of rounds, producing a
:class:`StrategyReport` whose per-category message rates are directly
comparable to the analytical Eq. 11-13/17 costs. What differs between
the four strategies is one :class:`~repro.analysis.strategies.StrategyPolicy`,
the same value the vectorized kernel reads:

* ``noIndex`` — every query broadcast; DHT maintenance cancelled (Eq. 12);
* ``indexAll`` — every key preloaded with infinite TTL, proactive
  updates at ``fUpd`` (Eq. 11);
* ``partialIdeal`` — the Section 4 oracle: the top ``maxRank`` keys are
  preloaded, peers *know* which keys those are, and query the index only
  for them (Eq. 13);
* ``partialSelection`` — the real Section 5 algorithm (Eq. 17):
  index-first search, broadcast on miss, TTL insertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import strategy_setup
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError, require_finite
from repro.net.churn import ChurnConfig
from repro.obs.clock import perf_counter
from repro.pdht.config import PdhtConfig
from repro.sim.engine import whole_rounds
from repro.sim.metrics import MessageCategory

if TYPE_CHECKING:
    from repro.fastsim.workload import BatchWorkload

__all__ = [
    "StrategyReport",
    "WindowRecorder",
    "SimulatedStrategy",
    "key_name",
]


def key_name(key_index: int) -> str:
    """Stable application key string for a key-universe index: what every
    event run and every calibration probe looks a key up by."""
    return f"key-{key_index:06d}"


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


class WindowRecorder:
    """Accumulates per-window hit/query counts into report series, for
    both engines: a driver records each round's queries and hits, offers
    to close a window after the round and flushes once after the run.

    ``window`` is in rounds; 0 means no windows. A negative, NaN,
    infinite or boolean window is a :class:`ParameterError`.
    """

    def __init__(self, window: float) -> None:
        require_finite("window", window, 0.0)
        self.window = window
        self.queries = 0
        self.hits = 0
        self.next_at = window
        self.hit_rate_series: list[tuple[float, float]] = []
        self.index_size_series: list[tuple[float, int]] = []

    @property
    def enabled(self) -> bool:
        return self.window > 0

    def record(self, queries: int, hits: int) -> None:
        self.queries += queries
        self.hits += hits

    def _close(self, elapsed: float, index_size: Callable[[], int]) -> None:
        rate = self.hits / self.queries if self.queries else 0.0
        self.hit_rate_series.append((elapsed, rate))
        self.index_size_series.append((elapsed, index_size()))
        self.queries = self.hits = 0

    def maybe_close(self, elapsed: float, index_size: Callable[[], int]) -> None:
        """Close the window at ``elapsed`` rounds since run start.

        ``index_size`` is a thunk: sizing the index is only paid when a
        window actually closes.
        """
        if not self.enabled or elapsed < self.next_at:
            return
        self._close(elapsed, index_size)
        self.next_at += self.window

    def flush(self, elapsed: float, index_size: Callable[[], int]) -> None:
        """Close the trailing partial window at the end of a run.

        When ``duration`` is not a multiple of ``window`` the final
        ``duration % window`` rounds never reach ``next_at``; without this
        flush their queries silently vanish from ``hit_rate_series``. A
        run that ends exactly on a window boundary already closed it in
        :meth:`maybe_close` and is left untouched.
        """
        if not self.enabled or elapsed <= self.next_at - self.window:
            return
        self._close(elapsed, index_size)


class SimulatedStrategy:
    """One strategy on its own substrate: construction, workload loop,
    reporting.

    Parameters mirror :class:`~repro.fastsim.kernel.FastSimKernel`:
    ``strategy`` is one of
    :data:`~repro.analysis.strategies.STRATEGY_NAMES`, and the DHT size, the
    insert TTL, the preloaded keys and the proactive updates all come
    from its :class:`~repro.analysis.strategies.StrategyPolicy`.
    """

    def __init__(
        self,
        params: ScenarioParameters,
        config: Optional[PdhtConfig] = None,
        strategy: str = "partialSelection",
        seed: int = 0,
        churn: Optional[ChurnConfig] = None,
        workload: Optional[BatchWorkload] = None,
    ) -> None:
        self.params = params
        self.strategy = strategy
        base_config = config or PdhtConfig.from_scenario(params)
        self.policy = strategy_setup(params, base_config, strategy)
        self.config = base_config.with_ttl(self.policy.key_ttl)
        # Imported here: the report, the recorder and key_name above are
        # the kernel's too, and it never builds the event substrate.
        from repro.pdht.network import PdhtNetwork

        # Telemetry names each phase of a run under the caller's span; it
        # reads the clock around the phase and never a random stream.
        with obs.span("strategy.build"):
            self.network = PdhtNetwork(
                params,
                self.config,
                seed=seed,
                num_active_peers=self.policy.num_members,
                churn=churn,
            )
        if workload is None:
            # Imported here: the stream classes live in repro.fastsim,
            # whose compare module imports this one.
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

    def prepare(self) -> None:
        """Publish content replicas, preload the index and, without a
        DHT to run, cancel its maintenance."""
        if self._prepared:
            return
        with obs.span("strategy.prepare"):
            n_keys = self.params.n_keys
            with obs.span("strategy.publish"):
                self.network.publish_all(
                    {key_name(i): f"value-{i}" for i in range(n_keys)}
                )
            # Every key in key order, else the top ranks in rank order
            # (the stores keep the order given).
            ranks = self.policy.preloaded_ranks
            indexed = (
                range(n_keys)
                if ranks == n_keys
                else map(self.workload.key_for_rank, range(1, ranks + 1))
            )
            with obs.span("strategy.preload"):
                self.network.preload_index_all(
                    {key_name(i): f"value-{i}" for i in indexed}
                )
            if not self.policy.runs_dht:
                self.network.disable_maintenance()
            # Preparation traffic is not part of the steady-state comparison.
            self.network.metrics.reset()
        self._prepared = True

    def run(self, duration: float, window: float = 0.0) -> StrategyReport:
        """Drive the workload for ``duration`` rounds.

        ``window > 0`` records index-size and hit-rate samples every
        ``window`` rounds (for the adaptivity experiments).
        """
        rounds = whole_rounds(duration)
        recorder = WindowRecorder(window)
        self.prepare()
        report = StrategyReport(
            strategy=self.strategy, params=self.params, duration=duration
        )
        sim = self.network.simulation
        start = sim.now
        rate = self.params.network_query_rate
        updates = self.policy.updates_per_round(self.params.update_freq)
        index_size = self.network.distinct_indexed_keys
        profiled = obs.enabled()
        query_seconds = 0.0
        for _ in range(rounds):
            self.network.advance(1.0)  # reports itself as ``engine.run``
            if profiled:
                round_started = perf_counter()
            now = sim.now
            queries, hits = report.queries, report.index_hits
            # Queries this round: Poisson around the network-wide rate,
            # which the workload may modulate (e.g. a diurnal cycle).
            count = int(
                self._rng.poisson(rate * self.workload.rate_multiplier(now))
            )
            for rank, key_index in self.workload.draw(now, count):
                origin = self.network.random_online_peer()
                answered, via_index = self._handle(
                    origin, key_name(key_index), rank
                )
                report.queries += 1
                if answered:
                    report.answered += 1
                if via_index:
                    report.index_hits += 1
            # Proactive updates (indexAll / partialIdeal only).
            self._update_debt += updates
            while self._update_debt >= 1.0:
                self._update_debt -= 1.0
                self._apply_random_update()
            recorder.record(report.queries - queries, report.index_hits - hits)
            recorder.maybe_close(now - start, index_size)
            if profiled:
                query_seconds += perf_counter() - round_started
        if profiled:
            obs.add_duration("strategy.queries", query_seconds, n=report.queries)
        recorder.flush(sim.now - start, index_size)
        report.hit_rate_series = recorder.hit_rate_series
        report.index_size_series = recorder.index_size_series
        report.messages_by_category = self.network.metrics.totals_by_category()
        if report.index_size_series:
            report.mean_index_size = sum(
                s for _, s in report.index_size_series
            ) / len(report.index_size_series)
        else:
            report.mean_index_size = float(index_size())
        return report

    def _handle(self, origin: int, key: str, rank: int) -> tuple[bool, bool]:
        """Answer one query; returns ``(answered, via_index)``."""
        if rank <= self.policy.index_ranks:
            outcome = self.network.query(origin, key)
            return outcome.found, outcome.via_index
        return self.network.walker.search(origin, key).found, False

    def _apply_random_update(self) -> None:
        key_index = int(self._rng.integers(0, self.params.n_keys))
        self.network.proactive_update(
            key_name(key_index), f"value-{key_index}-v2"
        )
