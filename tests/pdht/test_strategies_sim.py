"""Tests for the simulated indexing strategies."""

from __future__ import annotations

import math

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError
from repro.experiments.execution import Cell
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy, StrategyReport, key_name
from repro.sim.metrics import MessageCategory


@pytest.fixture(scope="module")
def sim_params():
    return ScenarioParameters(
        num_peers=200,
        n_keys=400,
        storage_per_peer=100,
        replication=20,
        query_freq=1.0 / 10.0,  # busy, so short runs see many queries
    )


@pytest.fixture(scope="module")
def sim_config(sim_params):
    return PdhtConfig.from_scenario(sim_params, walkers=8)


def run_strategy(name, params, config, duration=60.0, seed=0, **kwargs):
    strategy = SimulatedStrategy(
        params, config=config, strategy=name, seed=seed, **kwargs
    )
    return strategy, strategy.run(duration)


class TestNoIndex:
    def test_never_uses_index(self, sim_params, sim_config):
        _, report = run_strategy("noIndex", sim_params, sim_config)
        assert report.index_hits == 0
        assert report.hit_rate == 0.0

    def test_no_maintenance_or_lookup_traffic(self, sim_params, sim_config):
        _, report = run_strategy("noIndex", sim_params, sim_config)
        assert report.messages_by_category.get(MessageCategory.MAINTENANCE, 0) == 0
        assert report.messages_by_category.get(MessageCategory.INDEX_SEARCH, 0) == 0

    def test_all_queries_answered(self, sim_params, sim_config):
        # Content is fully replicated and there is no churn: broadcast
        # search must find everything.
        _, report = run_strategy("noIndex", sim_params, sim_config)
        assert report.success_rate == 1.0

    def test_cost_dominated_by_walks(self, sim_params, sim_config):
        _, report = run_strategy("noIndex", sim_params, sim_config)
        walk = report.messages_by_category.get(MessageCategory.UNSTRUCTURED_SEARCH, 0)
        assert walk == pytest.approx(report.total_messages, rel=1e-6)


class TestIndexAll:
    def test_every_query_hits_index(self, sim_params, sim_config):
        _, report = run_strategy("indexAll", sim_params, sim_config)
        assert report.hit_rate == 1.0
        assert report.success_rate == 1.0

    def test_no_broadcast_traffic(self, sim_params, sim_config):
        _, report = run_strategy("indexAll", sim_params, sim_config)
        assert report.messages_by_category.get(
            MessageCategory.UNSTRUCTURED_SEARCH, 0
        ) == 0

    def test_maintenance_traffic_present(self, sim_params, sim_config):
        _, report = run_strategy("indexAll", sim_params, sim_config)
        assert report.messages_by_category.get(MessageCategory.MAINTENANCE, 0) > 0

    def test_index_holds_whole_universe(self, sim_params, sim_config):
        strategy, report = run_strategy("indexAll", sim_params, sim_config)
        assert strategy.network.distinct_indexed_keys() == sim_params.n_keys


class TestPartialIdeal:
    def test_hit_rate_tracks_p_indexed(self, sim_params, sim_config):
        from repro.analysis.threshold import solve_threshold

        _, report = run_strategy("partialIdeal", sim_params, sim_config)
        expected = solve_threshold(sim_params).p_indexed
        assert report.hit_rate == pytest.approx(expected, abs=0.08)

    def test_cheaper_than_both_baselines(self, sim_params, sim_config):
        _, ideal = run_strategy("partialIdeal", sim_params, sim_config)
        _, all_ = run_strategy("indexAll", sim_params, sim_config)
        _, none = run_strategy("noIndex", sim_params, sim_config)
        assert ideal.messages_per_second < all_.messages_per_second
        assert ideal.messages_per_second < none.messages_per_second

    def test_unindexed_tail_goes_broadcast(self, sim_params, sim_config):
        _, report = run_strategy("partialIdeal", sim_params, sim_config)
        assert report.messages_by_category.get(
            MessageCategory.UNSTRUCTURED_SEARCH, 0
        ) > 0


class TestPartialSelection:
    def test_hit_rate_builds_up(self, sim_params, sim_config):
        _, report = run_strategy(
            "partialSelection", sim_params, sim_config, duration=120.0
        )
        # Busy Zipf traffic: the hot head gets indexed quickly.
        assert report.hit_rate > 0.5

    def test_selection_stats_exposed(self, sim_params, sim_config):
        strategy, report = run_strategy(
            "partialSelection", sim_params, sim_config
        )
        assert report.insertions > 0
        # Every query asks the index; a miss is cold or a reinsertion, and
        # inserts its key unless the broadcast found nothing.
        misses = report.queries - report.index_hits
        assert report.cold_misses + report.reinsertions == misses
        assert report.insertions + report.unresolved == misses
        assert report.unresolved == report.queries - report.answered
        assert report.cold_misses <= sim_params.n_keys

    def test_index_stays_partial(self, sim_params, sim_config):
        strategy, _ = run_strategy(
            "partialSelection", sim_params, sim_config, duration=120.0
        )
        indexed = strategy.network.distinct_indexed_keys()
        assert 0 < indexed < sim_params.n_keys

    def test_costlier_than_ideal(self, sim_params, sim_config):
        # Section 5.1's four overhead sources must show up in simulation too.
        _, sel = run_strategy(
            "partialSelection", sim_params, sim_config, duration=90.0
        )
        _, ideal = run_strategy(
            "partialIdeal", sim_params, sim_config, duration=90.0
        )
        assert sel.messages_per_second > ideal.messages_per_second


class TestDriver:
    def test_invalid_duration_rejected(self, sim_params, sim_config):
        strategy = SimulatedStrategy(
            sim_params, config=sim_config, strategy="noIndex"
        )
        with pytest.raises(ParameterError):
            strategy.run(0.0)

    def test_fractional_duration_rejected(self, sim_params, sim_config):
        # The driver steps whole rounds: 20.5 would run 20 and report
        # msg/s over 20.5; a refreshing run would truncate the same way.
        for period in (None, 10.0):
            strategy = SimulatedStrategy(
                sim_params, config=sim_config,
                content_refresh_period=period,
            )
            with pytest.raises(ParameterError, match="whole number of rounds"):
                strategy.run(20.5)
            assert strategy.network.simulation.now == 0.0  # nothing ran
        with pytest.raises(ParameterError, match="whole number of rounds"):
            Cell(
                sim_params, sim_config, 0.5, content_refresh_period=10.0
            ).run()

    @pytest.mark.parametrize("duration", [math.inf, math.nan, True])
    def test_non_finite_or_boolean_duration_rejected(
        self, sim_params, sim_config, duration
    ):
        # Every driver refuses it up front: inf used to escape as an
        # OverflowError, NaN as a bare ValueError, and True ran one round.
        from repro.fastsim import run_fastsim

        strategy = SimulatedStrategy(
            sim_params, config=sim_config, strategy="noIndex"
        )
        with pytest.raises(ParameterError, match="finite number"):
            strategy.run(duration)
        assert strategy.network.simulation.now == 0.0  # nothing ran
        with pytest.raises(ParameterError, match="finite number"):
            Cell(
                sim_params, sim_config, duration, content_refresh_period=10.0
            ).run()
        with pytest.raises(ParameterError, match="finite number"):
            run_fastsim(sim_params, config=sim_config, duration=duration)

    @pytest.mark.parametrize(
        "period", [math.nan, True, 0.0], ids=["nan", "bool", "zero"]
    )
    def test_staleness_refresh_period_must_be_a_positive_number(
        self, sim_params, sim_config, period
    ):
        # NaN used to run without a single refresh, and True as a
        # one-round period. Refused before a substrate is built.
        with pytest.raises(ParameterError, match="refresh_period must be > 0"):
            Cell(
                sim_params, sim_config, 20.0, content_refresh_period=period
            ).run()

    def test_windows_record_series(self, sim_params, sim_config):
        strategy = SimulatedStrategy(sim_params, config=sim_config, seed=1)
        report = strategy.run(60.0, window=20.0)
        assert len(report.index_size_series) >= 2
        assert len(report.hit_rate_series) == len(report.index_size_series)

    def test_reports_are_reproducible(self, sim_params, sim_config):
        _, a = run_strategy(
            "partialSelection", sim_params, sim_config, duration=30.0, seed=9
        )
        _, b = run_strategy(
            "partialSelection", sim_params, sim_config, duration=30.0, seed=9
        )
        assert a.total_messages == b.total_messages
        assert a.queries == b.queries
        assert a.index_hits == b.index_hits

    def test_different_seeds_differ(self, sim_params, sim_config):
        _, a = run_strategy(
            "partialSelection", sim_params, sim_config, duration=30.0, seed=1
        )
        _, b = run_strategy(
            "partialSelection", sim_params, sim_config, duration=30.0, seed=2
        )
        assert a.total_messages != b.total_messages

    def test_mismatched_workload_rejected(self, sim_params, sim_config):
        from repro.analysis.zipf import ZipfDistribution
        from repro.sim.rng import RandomStreams
        from repro.workloads import StationaryZipf

        workload = StationaryZipf().build(
            ZipfDistribution(10, 1.2), RandomStreams(0).get("w")
        )
        with pytest.raises(ParameterError):
            SimulatedStrategy(
                sim_params, config=sim_config, strategy="noIndex",
                workload=workload,
            )

    def test_selection_builds_a_partial_index(self, sim_params):
        config = PdhtConfig.from_scenario(sim_params, walkers=8)
        _, report = run_strategy(
            "partialSelection", sim_params, config, duration=30.0
        )
        assert report.queries > 0
        # The hit rate builds up and the index stays partial.
        assert report.hit_rate > 0.4
        assert 0 < report.mean_index_size < sim_params.n_keys


class TestSelectionCounters:
    """How one query's path lands in the report's counters."""

    @pytest.fixture
    def strategy(self, sim_params, sim_config):
        return SimulatedStrategy(sim_params, config=sim_config, seed=4)

    def _answer(self, strategy, report, key_index):
        """One index query (rank 1) for a key, as a round of one."""
        online = strategy.network.population.sorted_online_ids()
        strategy._answer_round(report, online, [(1, key_index)])

    def _report(self, strategy):
        return StrategyReport(
            strategy=strategy.strategy, params=strategy.params, duration=1.0
        )

    def test_hit_rate_accounting(self, strategy):
        report = self._report(strategy)
        self._answer(strategy, report, 1)  # cold miss, inserted
        self._answer(strategy, report, 1)  # hit
        assert (report.queries, report.index_hits, report.answered) == (2, 1, 2)
        assert (report.insertions, report.cold_misses) == (1, 1)

    def test_cold_miss_vs_reinsertion(self, strategy):
        report = self._report(strategy)
        self._answer(strategy, report, 1)  # never indexed: cold
        strategy.network.advance(strategy.config.key_ttl + 1.0)
        self._answer(strategy, report, 1)  # was indexed: reinsertion
        assert (report.cold_misses, report.reinsertions) == (1, 1)
        assert report.insertions == 2 and report.index_hits == 0

    def test_unresolved_counted(self, strategy):
        report = self._report(strategy)
        strategy.network.replicator.remove(key_name(1))  # held nowhere
        self._answer(strategy, report, 1)
        self._answer(strategy, report, 1)  # still never indexed
        assert (report.unresolved, report.cold_misses) == (2, 2)
        assert report.insertions == report.answered == 0


def test_a_round_with_nobody_online_drops_its_batch():
    """Every peer offline: each round's batch is drawn and dropped, as the
    kernel drops it, and the run goes on; the query stream stands where
    the drawn batches leave it."""
    from repro.experiments.scenario import simulation_scenario

    params = simulation_scenario(scale=0.02)
    strategy = SimulatedStrategy(params, strategy="partialSelection", seed=3)
    twin = SimulatedStrategy(params, strategy="partialSelection", seed=3)
    population = strategy.network.population
    for peer_id in range(len(population)):
        population.set_online(peer_id, False)
    report = strategy.run(2.0)
    assert (report.queries, report.answered, report.index_hits) == (0, 0, 0)
    assert report.hit_rate_series == [] and report.unresolved == 0
    # The twin draws the same two rounds' counts and batches.
    drawn = 0
    for now in (1.0, 2.0):
        rate = params.network_query_rate * twin.workload.rate_multiplier(now)
        count = int(twin._rng.poisson(rate))
        drawn += len(twin.workload.draw(now, count))
    assert drawn > 0
    for name in ("strategy", "queries", "origins"):
        assert (
            strategy.network.streams.get(name).bit_generator.state
            == twin.network.streams.get(name).bit_generator.state
        ), name
