"""Tests for the batch execution kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fastsim.kernel import FastSimKernel, PerOpCosts, run_fastsim
from repro.workloads import RankSwap
from repro.analysis.zipf import ZipfDistribution
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.sim.metrics import MessageCategory


class TestPerOpCosts:
    def test_analytical_matches_cost_model(self, small_params):
        config = PdhtConfig.from_scenario(small_params)
        costs = PerOpCosts.analytical(
            small_params, config, num_active_peers=64
        )
        assert costs.lookup == pytest.approx(0.5 * math.log2(64))
        assert costs.flood == pytest.approx(
            config.replication * small_params.dup2
        )
        assert costs.walk == pytest.approx(
            small_params.num_peers / config.replication * small_params.dup
        )
        assert costs.maintenance_per_round == pytest.approx(
            small_params.env * math.log2(64) * 64
        )

    def test_negative_cost_rejected(self):
        with pytest.raises(ParameterError):
            PerOpCosts(
                lookup=-1.0, flood=0.0, walk=0.0, gateway_discovery=0.0,
                maintenance_per_round=0.0, num_active_peers=2,
            )


class TestSelectionDynamics:
    def test_deterministic_under_seed(self, small_params):
        a = run_fastsim(small_params, duration=50.0, seed=7)
        b = run_fastsim(small_params, duration=50.0, seed=7)
        assert a.queries == b.queries
        assert a.index_hits == b.index_hits
        assert a.messages_by_category == b.messages_by_category

    def test_hot_keys_stay_cold_keys_expire(self, small_params):
        report = run_fastsim(small_params, duration=200.0, seed=1)
        assert 0.0 < report.hit_rate < 1.0
        assert 0 < report.final_index_size < small_params.n_keys
        # Without churn every broadcast resolves: all queries answered.
        assert report.answered == report.queries
        assert report.unresolved == 0

    def test_hit_rate_tracks_selection_model(self, small_params):
        # The kernel's empirical pIndxd must land near Eq. 14.
        from repro.analysis.selection_model import SelectionModel

        config = PdhtConfig.from_scenario(small_params)
        report = run_fastsim(
            small_params, config=config, duration=400.0, seed=3
        )
        model = SelectionModel(small_params, key_ttl=config.key_ttl)
        assert report.hit_rate == pytest.approx(model.p_indexed, abs=0.08)

    def test_cost_accounting_identity(self, small_params):
        # Category totals must equal per-op costs times event counts.
        config = PdhtConfig.from_scenario(small_params)
        costs = PerOpCosts.analytical(small_params, config)
        report = run_fastsim(
            small_params, config=config, duration=100.0, seed=5, costs=costs
        )
        misses = report.queries - report.index_hits
        assert report.messages_by_category[
            MessageCategory.INDEX_SEARCH
        ] == pytest.approx(costs.lookup * (report.queries + report.insertions))
        assert report.messages_by_category[
            MessageCategory.REPLICA_FLOOD
        ] == pytest.approx(costs.flood * (misses + report.insertions))
        assert report.messages_by_category[
            MessageCategory.UNSTRUCTURED_SEARCH
        ] == pytest.approx(costs.walk * misses)
        assert report.messages_by_category[
            MessageCategory.MAINTENANCE
        ] == pytest.approx(costs.maintenance_per_round * 100.0)
        assert report.messages_by_category[
            MessageCategory.MEMBERSHIP
        ] == pytest.approx(
            costs.gateway_discovery * report.gateway_discoveries
        )

    def test_miss_then_reinsertion_classification(self, small_params):
        report = run_fastsim(small_params, duration=300.0, seed=2)
        misses = report.queries - report.index_hits
        assert report.cold_misses + report.reinsertions == misses
        assert report.cold_misses <= small_params.n_keys

    def test_zero_ttl_degenerates_to_no_hits(self, small_params):
        config = PdhtConfig.from_scenario(small_params).with_ttl(0.0)
        report = run_fastsim(
            small_params, config=config, duration=50.0, seed=1
        )
        assert report.index_hits == 0
        assert report.insertions == report.queries
        assert report.final_index_size == 0

    def test_windowed_series(self, small_params):
        report = run_fastsim(
            small_params, duration=100.0, seed=1, window=20.0
        )
        assert len(report.hit_rate_series) == 5
        assert len(report.index_size_series) == 5
        times = [t for t, _ in report.hit_rate_series]
        assert times == sorted(times)
        assert report.mean_index_size > 0

    def test_invalid_inputs_rejected(self, small_params):
        with pytest.raises(ParameterError):
            run_fastsim(small_params, duration=0.0)
        with pytest.raises(ParameterError, match="whole number of rounds"):
            run_fastsim(small_params, duration=0.4)
        with pytest.raises(ParameterError, match="whole number of rounds"):
            run_fastsim(small_params, duration=1.4)
        with pytest.raises(ParameterError):
            FastSimKernel(small_params, strategy="bogus")

    def test_workload_size_mismatch_rejected(self, small_params, rng):
        workload_zipf = ZipfDistribution(small_params.n_keys + 1, 1.2)
        with pytest.raises(ParameterError):
            FastSimKernel(
                small_params,
                workload=RankSwap(1.0).build(workload_zipf, rng),
            )


class TestOtherStrategies:
    def test_index_all_always_hits(self, small_params):
        report = run_fastsim(
            small_params, duration=50.0, seed=1, strategy="indexAll"
        )
        assert report.hit_rate == 1.0
        assert report.success_rate == 1.0
        assert MessageCategory.UNSTRUCTURED_SEARCH not in report.messages_by_category

    def test_no_index_never_hits(self, small_params):
        report = run_fastsim(
            small_params, duration=50.0, seed=1, strategy="noIndex"
        )
        assert report.hit_rate == 0.0
        assert report.success_rate == 1.0
        categories = set(report.messages_by_category)
        assert categories == {MessageCategory.UNSTRUCTURED_SEARCH}

    def test_partial_ideal_hit_rate_is_head_mass(self, small_params):
        from repro.analysis.threshold import solve_threshold

        report = run_fastsim(
            small_params, duration=200.0, seed=1, strategy="partialIdeal"
        )
        threshold = solve_threshold(small_params)
        # p_indexed is Eq. 5, the query mass of the maxRank head.
        assert report.hit_rate == pytest.approx(threshold.p_indexed, abs=0.05)
        assert report.mean_index_size == threshold.max_rank

    def test_strategy_ordering_matches_paper(self, small_params):
        # partialIdeal must be the cheapest of the four (Fig. 1 claim).
        rates = {
            name: run_fastsim(
                small_params, duration=100.0, seed=4, strategy=name
            ).messages_per_second
            for name in ("noIndex", "indexAll", "partialIdeal", "partialSelection")
        }
        assert rates["partialIdeal"] == min(rates.values())


class TestOriginDraws:
    def test_one_call_draws_what_per_round_calls_would(self):
        # The kernel draws a span's origins in one ``integers`` call. That
        # is the stream one call per round draws only because numpy keeps
        # a bounded draw's spare half-word in the bit generator's state.
        counts = [3, 0, 1, 5, 2]
        for high in (2, 200, 160_000, 2**31 + 5, 2**33):
            per_round, per_span = (np.random.default_rng(7) for _ in "ab")
            rounds = np.concatenate(
                [per_round.integers(0, high, size=count) for count in counts]
            )
            span = per_span.integers(0, high, size=sum(counts))
            assert np.array_equal(rounds, span)
            assert per_round.bit_generator.state == per_span.bit_generator.state


class TestShiftsAndChurn:
    def test_hit_rate_collapses_and_recovers_on_shift(self, small_params):
        zipf = ZipfDistribution(small_params.n_keys, small_params.alpha)
        workload = RankSwap(300.0).build(zipf, np.random.default_rng(9))
        report = run_fastsim(
            small_params,
            duration=600.0,
            seed=2,
            workload=workload,
            window=50.0,
        )
        rates = dict(report.hit_rate_series)
        before = rates[300.0]
        right_after = rates[350.0]
        recovered = rates[600.0]
        assert right_after < before
        assert recovered > right_after

    def test_all_offline_rounds_drop_queries_without_crashing(self, small_params):
        # Regression: partialIdeal crashed with IndexError when a round
        # had zero online peers (empty origins vs count-length mask).
        brutal = ChurnConfig(mean_session=0.5, mean_offline=5000.0)
        for strategy in ("partialIdeal", "partialSelection", "indexAll"):
            report = run_fastsim(
                small_params,
                duration=50.0,
                seed=3,
                strategy=strategy,
                churn=brutal,
            )
            assert report.queries >= 0  # completed without raising

    def test_dropped_batch_reports_zero_accepted(self, small_params):
        # Regression: rounds dropped for lack of online peers used to
        # inflate the window denominators (recorder.record(count, 0))
        # while vanishing from the report. The step must report zero
        # accepted queries so recorder and report stay in sync.
        from repro.fastsim.metrics import FastSimReport

        kernel = FastSimKernel(small_params, seed=3, churn=ChurnConfig())
        kernel.state.online[:] = False
        report = FastSimReport(
            strategy="partialSelection", params=small_params, duration=1.0
        )
        keys = np.array([1, 2, 2])
        [(accepted, hits, charges)] = kernel._step_span(
            1.0, np.array([keys.size]), keys, keys, [report]
        )
        assert (accepted, hits) == ([0], [0])
        assert report.queries == 0
        assert charges == []

    def test_churn_reduces_hits_and_adds_cost(self, small_params):
        quiet = run_fastsim(small_params, duration=100.0, seed=3)
        churned = run_fastsim(
            small_params,
            duration=100.0,
            seed=3,
            churn=ChurnConfig(mean_session=600.0, mean_offline=600.0),
        )
        assert churned.churn_transitions > 0
        assert churned.success_rate <= 1.0
        # Availability 0.5 halves maintenance (half the members online).
        assert churned.messages_by_category[
            MessageCategory.MAINTENANCE
        ] < quiet.messages_by_category[MessageCategory.MAINTENANCE]


class TestStaleness:
    def test_no_refresh_means_no_stale_hits(self, small_params):
        report = run_fastsim(small_params, duration=80.0, seed=2)
        assert report.stale_hits == 0
        assert report.content_refreshes == 0
        assert report.stale_hit_fraction == 0.0

    def test_content_refreshes_create_stale_hits(self, small_params):
        report = run_fastsim(
            small_params, duration=120.0, seed=2, content_refresh_period=30.0
        )
        assert report.content_refreshes == 4
        assert report.stale_hits > 0
        assert 0.0 < report.stale_hit_fraction <= 1.0
        assert report.stale_hits <= report.index_hits

    def test_staleness_grows_with_ttl(self, small_params):
        config = PdhtConfig.from_scenario(small_params)
        short = run_fastsim(
            small_params,
            config=config.with_ttl(config.key_ttl * 0.25),
            duration=150.0,
            seed=2,
            content_refresh_period=40.0,
        )
        long = run_fastsim(
            small_params,
            config=config.with_ttl(config.key_ttl * 4.0),
            duration=150.0,
            seed=2,
            content_refresh_period=40.0,
        )
        # Longer-lived entries survive more refreshes and serve staler
        # payloads (the freshness/cost trade-off inside keyTtl).
        assert long.stale_hit_fraction >= short.stale_hit_fraction

    def test_resolved_misses_serve_fresh_payloads(self, small_params):
        # keyTtl 0: every hit comes from a just-resolved broadcast whose
        # re-fetch always carries the current version -> nothing stale.
        config = PdhtConfig.from_scenario(small_params).with_ttl(0.0)
        report = run_fastsim(
            small_params,
            config=config,
            duration=100.0,
            seed=2,
            content_refresh_period=25.0,
        )
        assert report.content_refreshes > 0
        assert report.stale_hits == 0

    def test_invalid_refresh_period_rejected(self, small_params):
        # NaN used to escape as a raw ValueError from the span cap, and
        # True ran as a one-round period.
        for period in (0.0, -5.0, math.nan, True):
            with pytest.raises(
                ParameterError, match="content_refresh_period must be > 0"
            ):
                run_fastsim(
                    small_params, duration=120.0,
                    content_refresh_period=period,
                )

    def test_infinite_refresh_period_never_refreshes(self, small_params):
        report = run_fastsim(
            small_params, duration=120.0, seed=2,
            content_refresh_period=math.inf,
        )
        assert report.content_refreshes == 0
        assert report.stale_hits == 0


class TestChurnCostModel:
    def test_kernel_builds_churn_costs_lazily(self, small_params):
        kernel = FastSimKernel(
            small_params,
            seed=1,
            churn=ChurnConfig(mean_session=600.0, mean_offline=200.0),
        )
        assert kernel.churn_costs is not None
        assert kernel.churn_costs.availability == pytest.approx(0.75)
        # 200 peers < CALIBRATION_LIMIT: measured off the event substrate.
        assert kernel.churn_costs.source == "calibrated"

    def test_no_churn_means_no_churn_costs(self, small_params):
        kernel = FastSimKernel(small_params, seed=1)
        assert kernel.churn_costs is None

    def test_walk_charges_use_failed_walk_cost(self, small_params):
        from repro.fastsim.churncosts import ChurnOpCosts

        churn = ChurnConfig(mean_session=600.0, mean_offline=600.0)
        cheap_failures = ChurnOpCosts(
            availability=0.5,
            lookup=2.0,
            miss_lookup=2.0,
            hit_flood=10.0,
            miss_flood=10.0,
            insert_flood=10.0,
            resolved_walk=20.0,
            failed_walk=20.0,
            walk_failure=0.2,
            hit_flood_fraction=0.0,
            turnover_miss=0.0,
            maintenance_per_round=10.0,
            num_active_peers=20,
        )
        from dataclasses import replace as dc_replace

        expensive_failures = dc_replace(cheap_failures, failed_walk=5000.0)
        cheap = run_fastsim(
            small_params, duration=80.0, seed=4, churn=churn,
            churn_costs=cheap_failures,
        )
        pricey = run_fastsim(
            small_params, duration=80.0, seed=4, churn=churn,
            churn_costs=expensive_failures,
        )
        assert (
            pricey.messages_by_category[MessageCategory.UNSTRUCTURED_SEARCH]
            > cheap.messages_by_category[MessageCategory.UNSTRUCTURED_SEARCH]
        )

    def test_turnover_misses_reduce_hit_rate(self, small_params):
        from dataclasses import replace as dc_replace

        from repro.fastsim.churncosts import ChurnOpCosts

        churn = ChurnConfig(mean_session=600.0, mean_offline=600.0)
        base = ChurnOpCosts(
            availability=0.5,
            lookup=2.0,
            miss_lookup=2.0,
            hit_flood=10.0,
            miss_flood=10.0,
            insert_flood=10.0,
            resolved_walk=20.0,
            failed_walk=100.0,
            walk_failure=0.0,
            hit_flood_fraction=0.0,
            turnover_miss=0.0,
            maintenance_per_round=10.0,
            num_active_peers=20,
        )
        turnover = dc_replace(base, turnover_miss=0.3)
        clean = run_fastsim(
            small_params, duration=80.0, seed=4, churn=churn,
            churn_costs=base,
        )
        churny = run_fastsim(
            small_params, duration=80.0, seed=4, churn=churn,
            churn_costs=turnover,
        )
        assert churny.hit_rate < clean.hit_rate


def _one_round(kernel, now, keys, totals, report):
    """Run ``keys`` as a one-round span at ``now`` and book its charges
    into ``totals``; returns the round's hits."""
    keys = np.asarray(keys)
    [(_, (hits,), charges)] = kernel._step_span(
        now, np.array([keys.size]), keys + 1, keys, [report]
    )
    for category, (amount,) in charges:
        totals[category] += amount
    return hits


class TestZeroTtlSelectionBranch:
    """Direct unit coverage of the selection path's keyTtl == 0 branch
    on one-round spans (previously only exercised indirectly)."""

    def _kernel(self, small_params):
        config = PdhtConfig.from_scenario(small_params).with_ttl(0.0)
        return FastSimKernel(small_params, config=config, seed=0)

    def test_cold_key_is_indexed_by_its_first_resolved_occurrence(
        self, small_params, monkeypatch
    ):
        # Like the event engine's record_miss: a never-indexed key's
        # occurrences miss cold until one resolves and inserts it; the
        # rest of the round's occurrences are reinsertions.
        from repro.fastsim.metrics import FastSimReport

        kernel = self._kernel(small_params)
        mask = np.array([False, False, True, False, True])  # batch order
        monkeypatch.setattr(
            kernel, "_resolve_draws", lambda n: (mask[:n], mask[:n] * 1.0)
        )
        report = FastSimReport(
            strategy="partialSelection", params=small_params, duration=1.0
        )
        totals = {category: 0.0 for category in MessageCategory}
        _one_round(kernel, 1.0, [7, 8, 7, 8, 7], totals, report)
        # Key 7 misses cold twice, then once as a reinsertion; key 8
        # never resolves, so both its misses are cold.
        assert (report.cold_misses, report.reinsertions) == (4, 1)
        assert (report.insertions, report.unresolved) == (2, 3)

    def test_zero_ttl_cost_accounting(self, small_params):
        import numpy as np

        from repro.fastsim.metrics import FastSimReport

        kernel = self._kernel(small_params)
        totals = {category: 0.0 for category in MessageCategory}
        report = FastSimReport(
            strategy="partialSelection", params=small_params, duration=1.0
        )
        _one_round(kernel, 2.0, [1, 2, 3], totals, report)
        costs = kernel.lanes[0].costs
        # Every occurrence misses, resolves, and re-inserts.
        assert totals[MessageCategory.INDEX_SEARCH] == pytest.approx(
            costs.lookup * (3 + 3)
        )
        assert totals[MessageCategory.REPLICA_FLOOD] == pytest.approx(
            costs.flood * (3 + 3)
        )
        assert totals[MessageCategory.UNSTRUCTURED_SEARCH] == pytest.approx(
            costs.walk * 3
        )


class TestStrategySetup:
    def test_matches_kernel_derivation(self, small_params):
        from repro.fastsim.kernel import strategy_setup

        config = PdhtConfig.from_scenario(small_params)
        for strategy in (
            "noIndex", "indexAll", "partialIdeal", "partialSelection"
        ):
            policy = strategy_setup(small_params, config, strategy)
            kernel = FastSimKernel(
                small_params, config=config, strategy=strategy
            )
            (lane,) = kernel.lanes
            assert lane.policy == policy
            assert lane.key_ttl == policy.key_ttl
            assert lane.membership.num_members == policy.num_members

    def test_unknown_strategy_rejected(self, small_params):
        from repro.fastsim.kernel import strategy_setup

        with pytest.raises(ParameterError):
            strategy_setup(
                small_params, PdhtConfig.from_scenario(small_params), "bogus"
            )


class TestUnexpiringRunMemory:
    """A run in which no entry can expire reads no write time, no rank
    and no mapping, so it allocates none of them.

    Mutations run against ``src/`` (on a scratch copy), each caught: the
    write times allocated with the state; the identity mapping made as
    an ``arange`` for each stream; a rank buffer drawn for a selection
    run."""

    def test_a_run_allocates_its_plane_and_no_other_per_key_array(self):
        import tracemalloc

        from repro.analysis.parameters import ScenarioParameters
        from repro.analysis.zipf import build_guide
        from repro.workloads import StationaryZipf

        params = ScenarioParameters(
            num_peers=200, n_keys=200_000, storage_per_peer=100,
            replication=20, alpha=1.2, query_freq=0.2, update_freq=0.01,
            env=1.0 / 14.0, dup=1.8, dup2=1.8,
        )
        config = PdhtConfig.from_scenario(params).with_ttl(1000.0)
        zipf = ZipfDistribution(params.n_keys, params.alpha)
        build_guide(params.n_keys, params.alpha)
        rank_buffers = []

        def run():
            workload = StationaryZipf().build(zipf, np.random.default_rng(0))
            draw_rounds = workload.draw_rounds

            def spy(start, counts, out=None):
                rank_buffers.append(out[0])
                return draw_rounds(start, counts, out=out)

            workload.draw_rounds = spy
            kernel = FastSimKernel(
                params, config=config, seed=0, workload=workload,
                costs=PerOpCosts(3.7, 11.3, 123.45, 2.3, 17.9, 20),
            )
            return kernel, kernel.run(60.0)

        run()  # the planning caches, filled outside the trace
        tracemalloc.start()
        try:
            kernel, report = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.queries > 2000 and report.final_index_size > 0
        assert kernel._plane is not None
        assert not kernel.state.has_write_times
        assert kernel.workload.rank_to_key is None
        assert rank_buffers == [None, None]
        assert peak < params.n_keys * 8  # one float64 per key
