"""The event engine's runner for the three systems of Fig. 1 plus the
Section 5 selection algorithm, all running on the same substrate.

A :class:`SimulatedStrategy` owns a full
:class:`~repro.pdht.network.PdhtNetwork` and drives a query workload
through it for a configured number of rounds, producing a
:class:`StrategyReport` whose per-category message rates are directly
comparable to the analytical Eq. 11-13/17 costs. What differs between
the four strategies is one :class:`~repro.analysis.strategies.StrategyPolicy`,
the same value the vectorized kernel reads:

* ``noIndex`` — every query broadcast; DHT maintenance off (Eq. 12);
* ``indexAll`` — every key preloaded with infinite TTL, proactive
  updates at ``fUpd`` (Eq. 11);
* ``partialIdeal`` — the Section 4 oracle: the top ``maxRank`` keys are
  preloaded, peers *know* which keys those are, and query the index only
  for them (Eq. 13);
* ``partialSelection`` — the real Section 5 algorithm (Eq. 17):
  index-first search, broadcast on miss, TTL insertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import strategy_setup
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError, require_finite, require_period
from repro.net.churn import ChurnConfig
from repro.obs.clock import perf_counter
from repro.pdht.config import PdhtConfig
from repro.sim.engine import whole_rounds
from repro.sim.metrics import MessageCategory

if TYPE_CHECKING:
    from repro.fastsim.workload import BatchWorkload
    from repro.pdht.network import QueryOutcome

__all__ = [
    "StrategyReport",
    "WindowRecorder",
    "SimulatedStrategy",
    "key_name",
    "key_names",
]

#: Key-name tables :func:`key_names` keeps: a figure's networks and its
#: calibration probes share one key universe.
KEY_NAMES_MEMO = 4


def key_name(key_index: int) -> str:
    """Stable application key string for a key-universe index: what every
    event run and every calibration probe looks a key up by."""
    return f"key-{key_index:06d}"


@obs.counted_cache("key_names", maxsize=KEY_NAMES_MEMO)
def key_names(n_keys: int) -> tuple[str, ...]:
    """:func:`key_name` of every key index below ``n_keys``, built once per
    process (``cache.key_names.*``): publish, preload, queries and the
    churn calibration hold the same string objects, whose hashes are
    computed once."""
    return tuple(map(key_name, range(n_keys)))


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
    #: Index hits whose payload predated the latest content refresh (the
    #: staleness experiment's numerator).
    stale_hits: int = 0
    #: Content refreshes applied by ``content_refresh_period``.
    content_refreshes: int = 0
    #: Keys the miss path inserted into the index.
    insertions: int = 0
    #: Index misses on a key inserted before (Section 5's overhead
    #: source I).
    reinsertions: int = 0
    #: Index misses on a key never inserted so far (overhead source IV).
    cold_misses: int = 0
    #: Queries whose broadcast found the key nowhere.
    unresolved: int = 0

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

    @property
    def stale_hit_fraction(self) -> float:
        """Fraction of index hits that served an outdated payload."""
        if self.index_hits == 0:
            return 0.0
        return self.stale_hits / self.index_hits


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
        #: Rounds since run start at the last close.
        self.closed_at = 0.0
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
        self.closed_at = elapsed

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
        run whose last round closed a window in :meth:`maybe_close` is
        left untouched, even where float drift (or a window shorter than
        a round) leaves ``next_at`` at or below its end.
        """
        if not self.enabled or elapsed <= self.closed_at:
            return
        self._close(elapsed, index_size)


class SimulatedStrategy:
    """One strategy on its own substrate, built ready to query: content
    published, index preloaded and, without a DHT to run, maintenance
    cancelled. :meth:`run` drives the workload and reports.

    Parameters mirror :class:`~repro.fastsim.kernel.FastSimKernel`:
    ``strategy`` is one of
    :data:`~repro.analysis.strategies.STRATEGY_NAMES`, and the DHT size, the
    insert TTL, the preloaded keys and the proactive updates all come
    from its :class:`~repro.analysis.strategies.StrategyPolicy`.
    ``workload`` is the query stream; without one the run draws
    stationary Zipf queries from its substrate's own stream.

    ``content_refresh_period`` refreshes every key's content together
    every that many rounds (``inf``: never) and counts the index hits
    that serve a payload older than the current content version — the
    staleness measurement, on the Section 5.1 query path.
    """

    def __init__(
        self,
        params: ScenarioParameters,
        config: Optional[PdhtConfig] = None,
        strategy: str = "partialSelection",
        seed: int = 0,
        churn: Optional[ChurnConfig] = None,
        workload: Optional[BatchWorkload] = None,
        content_refresh_period: Optional[float] = None,
    ) -> None:
        if content_refresh_period is not None:
            require_period("content_refresh_period", content_refresh_period)
        if workload is not None and workload.n_keys != params.n_keys:
            raise ParameterError(
                f"workload covers {workload.n_keys} keys, "
                f"scenario has {params.n_keys}"
            )
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
        self.content_refresh_period = content_refresh_period
        queries, counts = "queries", "strategy"
        if content_refresh_period is not None:
            # pinned_probes.json pins a refresh run's streams and payloads.
            queries, counts = "staleness-queries", "staleness-counts"
            # The one content version of every key, and the query path
            # that checks a hit's payload against it.
            self._version = 0
            self._query = self._query_versioned
        else:
            self._query = self.network.query
        if workload is None:
            # Imported here: the stream classes live in repro.fastsim,
            # whose compare module imports this one.
            from repro.workloads.models import StationaryZipf

            workload = StationaryZipf().build(
                ZipfDistribution(params.n_keys, params.alpha),
                self.network.streams.get(queries),
            )
        self.workload = workload
        self._rng = self.network.streams.get(counts)
        self._next_refresh = content_refresh_period or math.inf
        self._stale_hits = 0
        self._update_debt = 0.0
        #: Keys the miss path has inserted: a later miss on one is a
        #: reinsertion, a miss on any other key a cold miss.
        self._inserted: set[str] = set()
        self._names = names = key_names(params.n_keys)
        with obs.span("strategy.prepare"):
            n_keys = params.n_keys
            with obs.span("strategy.publish"):
                self.network.publish_all(
                    {names[i]: self._value(i) for i in range(n_keys)}
                )
            # Every key in key order, else the top ranks in rank order
            # (the indexes keep the order given).
            ranks = self.policy.preloaded_ranks
            indexed = (
                range(n_keys)
                if ranks == n_keys
                else map(workload.key_for_rank, range(1, ranks + 1))
            )
            with obs.span("strategy.preload"):
                self.network.preload_index_all(
                    {names[i]: self._value(i) for i in indexed}
                )
            if not self.policy.runs_dht:
                self.network.disable_maintenance()
            # Preparation traffic is not part of the steady-state comparison.
            self.network.metrics.reset()

    def run(self, duration: float, window: float = 0.0) -> StrategyReport:
        """Drive the workload for ``duration`` rounds.

        ``window > 0`` records index-size and hit-rate samples every
        ``window`` rounds (for the adaptivity experiments). A due content
        refresh lands after the round's clock advance and before its
        query count is drawn. A round with nobody online draws its batch
        and drops it, as the kernel does: no origin, no query.
        """
        rounds = whole_rounds(duration)
        recorder = WindowRecorder(window)
        report = StrategyReport(
            strategy=self.strategy, params=self.params, duration=duration
        )
        sim = self.network.simulation
        start = sim.now
        rate = self.params.network_query_rate
        updates = self.policy.updates_per_round(self.params.update_freq)
        index_size = self.network.distinct_indexed_keys
        online = self.network.population.sorted_online_ids
        profiled = obs.enabled()
        query_seconds = 0.0
        self._stale_hits = 0
        for _ in range(rounds):
            self.network.advance(1.0)  # reports itself as ``engine.run``
            if profiled:
                round_started = perf_counter()
            now = sim.now
            if now >= self._next_refresh:
                self._refresh_content()
                report.content_refreshes += 1
            queries, hits = report.queries, report.index_hits
            # Queries this round: Poisson around the network-wide rate,
            # which the workload may modulate (e.g. a diurnal cycle).
            count = int(
                self._rng.poisson(rate * self.workload.rate_multiplier(now))
            )
            batch = self.workload.draw(now, count)
            if batch:
                view = online()
                if view:
                    self._answer_round(report, view, batch)
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
        report.stale_hits = self._stale_hits
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

    def _answer_round(
        self,
        report: StrategyReport,
        online: tuple[int, ...],
        batch: list[tuple[int, int]],
    ) -> None:
        """Answer one round's ``(rank, key index)`` queries and tally them
        into ``report``.

        Each query's origin is drawn from the "origins" stream over
        ``online``, the round's online view (nothing in a round's queries
        flips a peer), and its key is the index's entry of the shared
        key-name table.
        """
        names = self._names
        draw = self.network.origins.draw
        search = self.network.walker.search
        query = self._query
        index_ranks = self.policy.index_ranks
        inserted = self._inserted
        size = len(online)
        hits = resolved = unresolved = reinsertions = cold = insertions = 0
        for rank, key_index in batch:
            origin = online[draw(size)]
            key = names[key_index]
            if rank > index_ranks:
                found = search(origin, key).found
            else:
                outcome = query(origin, key)
                if outcome.via_index:
                    hits += 1
                    continue
                if key in inserted:
                    reinsertions += 1
                else:
                    cold += 1
                if outcome.inserted:
                    inserted.add(key)
                    insertions += 1
                found = outcome.found
            if found:
                resolved += 1
            else:
                unresolved += 1
        report.queries += len(batch)
        report.index_hits += hits
        report.answered += hits + resolved
        report.unresolved += unresolved
        report.reinsertions += reinsertions
        report.cold_misses += cold
        report.insertions += insertions

    def _query_versioned(self, origin: int, key: str) -> "QueryOutcome":
        """One Section 5.1 query of a refresh run, counting an index hit
        whose payload predates the current content version."""
        outcome = self.network.query(origin, key)
        if outcome.via_index and outcome.value[1] < self._version:
            self._stale_hits += 1
        return outcome

    def _value(self, key_index: int) -> object:
        """A key's current content, as published, preloaded or
        proactively updated: in a refresh run ``(key index, content
        version)``."""
        if self.content_refresh_period is None:
            return f"value-{key_index}"
        return key_index, self._version

    def _refresh_content(self) -> None:
        """Replace every key's content with its next version, together;
        index entries keep the payload they were written with."""
        self._version += 1
        self.network.refresh_content_all(
            {name: self._value(i) for i, name in enumerate(self._names)}
        )
        self._next_refresh += self.content_refresh_period

    def _apply_random_update(self) -> None:
        key_index = int(self._rng.integers(0, self.params.n_keys))
        self.network.proactive_update(
            self._names[key_index], self._value(key_index)
        )
