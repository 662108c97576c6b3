"""Tests for the selection-algorithm model (Eq. 14-17)."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import threshold
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import (
    SelectionModel,
    selection_outcome,
    selection_outcomes,
)
from repro.analysis.strategies import cost_index_all, cost_no_index
from repro.analysis.threshold import solve_threshold
from repro.analysis.zipf import ZipfDistribution, rank_probabilities
from repro.errors import ParameterError
from repro.obs.cache import cache_stats


class TestEq15IndexSize:
    def test_zero_ttl_empty_index(self, paper_params):
        model = SelectionModel(paper_params, key_ttl=0.0)
        assert model.index_size == 0.0
        assert model.p_indexed == 0.0

    def test_index_grows_with_ttl(self, paper_params):
        small = SelectionModel(paper_params, key_ttl=10.0)
        large = SelectionModel(paper_params, key_ttl=10_000.0)
        assert large.index_size > small.index_size

    def test_huge_ttl_indexes_almost_everything(self, paper_params):
        model = SelectionModel(paper_params, key_ttl=1e9)
        assert model.index_size > 0.99 * paper_params.n_keys

    def test_bounded_by_universe(self, paper_params):
        model = SelectionModel(paper_params, key_ttl=1e12)
        assert model.index_size <= paper_params.n_keys

    def test_matches_direct_sum(self, small_params):
        ttl = 500.0
        model = SelectionModel(small_params, key_ttl=ttl)
        zipf = ZipfDistribution(small_params.n_keys, small_params.alpha)
        prob_t = zipf.probs_queried(small_params.network_query_rate)
        direct = float((1.0 - (1.0 - prob_t) ** ttl).sum())
        assert model.index_size == pytest.approx(direct, rel=1e-9)


class TestEq14PIndexed:
    def test_default_ttl_is_reciprocal_fmin(self, paper_params):
        threshold = solve_threshold(paper_params)
        model = SelectionModel(paper_params)
        assert model.key_ttl == pytest.approx(threshold.key_ttl)

    def test_weighted_by_query_probability(self, small_params):
        ttl = 500.0
        model = SelectionModel(small_params, key_ttl=ttl)
        zipf = ZipfDistribution(small_params.n_keys, small_params.alpha)
        prob_t = zipf.probs_queried(small_params.network_query_rate)
        presence = 1.0 - (1.0 - prob_t) ** ttl
        direct = float((presence * zipf.probs()).sum())
        assert model.p_indexed == pytest.approx(direct, rel=1e-9)

    def test_p_indexed_exceeds_size_fraction(self, paper_params):
        # Hot keys are more likely present: query-weighted presence beats
        # unweighted presence.
        model = SelectionModel(paper_params)
        assert model.p_indexed > model.index_size / paper_params.n_keys

    def test_monotone_in_ttl(self, paper_params):
        assert (
            SelectionModel(paper_params, key_ttl=5000).p_indexed
            > SelectionModel(paper_params, key_ttl=500).p_indexed
        )


class TestEq17Cost:
    def test_selection_costs_more_than_ideal(self, paper_params):
        # Section 5.1 lists four overhead sources; the selection cost must
        # exceed the ideal partial cost at every frequency.
        from repro.analysis.strategies import cost_partial_ideal

        for period in (30, 600, 7200):
            params = paper_params.with_query_freq(1 / period)
            ideal = cost_partial_ideal(params)
            selection = SelectionModel(params).total_cost()
            assert selection > ideal, f"period {period}"

    def test_beats_no_index_everywhere_in_sweep(self, paper_params):
        # Fig. 4 dashed line stays positive across the whole sweep.
        for period in (30, 60, 600, 7200):
            params = paper_params.with_query_freq(1 / period)
            outcome = SelectionModel(params).outcome()
            assert outcome.savings_vs_no_index > 0, f"period {period}"

    def test_loses_to_index_all_at_very_high_freq(self, paper_params):
        # Paper: savings "except for very high query frequencies".
        outcome = SelectionModel(paper_params.with_query_freq(1 / 30)).outcome()
        assert outcome.savings_vs_index_all < 0

    def test_beats_index_all_at_low_freq(self, paper_params):
        outcome = SelectionModel(paper_params.with_query_freq(1 / 7200)).outcome()
        assert outcome.savings_vs_index_all > 0.8

    def test_outcome_carries_baselines(self, paper_params):
        outcome = SelectionModel(paper_params).outcome()
        assert outcome.index_all == pytest.approx(cost_index_all(paper_params))
        assert outcome.no_index == pytest.approx(cost_no_index(paper_params))

    def test_cost_decomposition(self, small_params):
        model = SelectionModel(small_params, key_ttl=300.0)
        cm = model.cost_model
        rate = small_params.network_query_rate
        expected = (
            model.index_size * cm.routing_maintenance
            + model.p_indexed * rate * cm.search_index_with_replicas
            + (1 - model.p_indexed)
            * rate
            * (2 * cm.search_index_with_replicas + cm.search_unstructured)
        )
        assert model.total_cost() == pytest.approx(expected)


class TestValidation:
    def test_negative_ttl_rejected(self, paper_params):
        with pytest.raises(ParameterError):
            SelectionModel(paper_params, key_ttl=-1.0)

    def test_mismatched_zipf_rejected(self, paper_params):
        with pytest.raises(ParameterError):
            SelectionModel(paper_params, key_ttl=10.0, zipf=ZipfDistribution(5, 1.2))

    def test_zipf_of_another_alpha_rejected(self):
        # Same key count, other exponent: would silently model another
        # scenario (index_size 1000.0 instead of 996.77).
        params = ScenarioParameters(num_peers=500, n_keys=1000, alpha=1.2)
        with pytest.raises(ParameterError, match="alpha 0.8 but params has 1.2"):
            SelectionModel(params, zipf=ZipfDistribution(1000, 0.8))
        assert SelectionModel(
            params, zipf=ZipfDistribution(1000, 1.2)
        ).index_size == SelectionModel(params).index_size


class TestZeroQueryRate:
    @pytest.mark.parametrize("key_ttl", [0.0, 1.0, float("inf")])
    def test_nothing_is_ever_present(self, small_params, key_ttl):
        # probT = 0 for every rank: no key is present for any keyTtl,
        # including inf (where inf * log1p(-0) would be NaN).
        params = small_params.with_query_freq(0.0)
        model = SelectionModel(params, key_ttl=key_ttl)
        assert (model.index_size, model.p_indexed) == (0.0, 0.0)
        assert model.total_cost() == 0.0
        outcome = selection_outcome(params, key_ttl)
        assert outcome.index_size == 0.0 and outcome.total_cost == 0.0

    def test_underflowed_ranks_are_never_present(self, small_params):
        # rank^-120 underflows to 0 past rank ~370: probT = 0 there, and
        # at keyTtl = inf exactly the ranks with probT > 0 are present.
        params = replace(small_params, n_keys=2_000, alpha=120.0, query_freq=1.0)
        prob_t = ZipfDistribution(2_000, 120.0).probs_queried(
            params.network_query_rate
        )
        assert 0 < np.count_nonzero(prob_t) < 2_000
        model = SelectionModel(params, key_ttl=float("inf"))
        assert model.index_size == np.count_nonzero(prob_t)
        assert model.p_indexed == pytest.approx(1.0)
        assert np.isfinite(model.total_cost())


class TestPlanningFootprint:
    """Planning reads the cached Eq. 3 array and allocates one buffer."""

    def test_no_distribution_and_no_cdf(self, monkeypatch):
        # An (n_keys, alpha) no other test plans, from empty caches.
        params = ScenarioParameters(
            num_peers=60_000, n_keys=123_457, alpha=1.1, query_freq=1 / 3600
        )
        for cache in (rank_probabilities, threshold._solve, selection_outcome):
            cache.cache_clear()

        def refuse(self, *args, **kwargs):
            raise AssertionError("planning built a ZipfDistribution")

        monkeypatch.setattr(ZipfDistribution, "__init__", refuse)
        probs = rank_probabilities(params.n_keys, params.alpha)

        def traced_peak(plan):
            tracemalloc.start()
            try:
                result = plan()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solved, solve_peak = traced_peak(lambda: solve_threshold(params))
        _, model_peak = traced_peak(
            lambda: selection_outcome(params, solved.key_ttl)
        )
        slack = 64 * 1024
        # The solve holds the Eq. 5 prefix at most: no CDF of the universe.
        assert 0 < solved.max_rank < params.n_keys // 10
        assert solve_peak < solved.max_rank * probs.itemsize + slack
        # The model holds one n-key buffer: no private copy, no CDF.
        assert model_peak < probs.nbytes + slack
        stats = cache_stats()
        assert stats["zipf_probs"]["size"] == 1
        assert "zipf_weights" not in stats

    def test_a_column_holds_two_buffers_and_keeps_none(self):
        params = ScenarioParameters(
            num_peers=60_000, n_keys=123_457, alpha=1.1, query_freq=1 / 3600
        )
        probs = rank_probabilities(params.n_keys, params.alpha)
        selection_outcome.cache_clear()
        tracemalloc.start()
        try:
            outcomes = selection_outcomes(params, [10.0, 500.0, float("inf")])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slack = 64 * 1024
        assert len(outcomes) == 3
        # The prefix and one working buffer, released on return.
        assert 2 * probs.nbytes < peak < 3 * probs.nbytes
        assert held < slack


class TestSelectionOutcomeCache:
    def test_equals_the_model_it_memoises(self, small_params):
        for ttl in (0.0, 37.5, 500.0, float("inf")):
            assert (
                selection_outcome(small_params, ttl)
                == SelectionModel(small_params, key_ttl=ttl).outcome()
            )

    def test_one_evaluation_per_scenario_and_ttl(self, small_params):
        from dataclasses import asdict, replace

        selection_outcome.cache_clear()
        first = selection_outcome(small_params, 123.0)
        twin = type(small_params)(**asdict(small_params))
        assert twin is not small_params
        assert selection_outcome(twin, 123.0) == first
        info = selection_outcome.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # a different TTL or alpha is a different evaluation
        assert selection_outcome(small_params, 124.0) != first
        assert selection_outcome(replace(small_params, alpha=0.8), 123.0) != first
        assert selection_outcome.cache_info().misses == 3

    def test_holds_scalars_only(self, small_params):
        from dataclasses import fields

        outcome = selection_outcome(small_params, 50.0)
        for field in fields(outcome):
            if field.name != "params":
                assert isinstance(getattr(outcome, field.name), float)

    def test_negative_ttl_rejected(self, small_params):
        with pytest.raises(ParameterError):
            selection_outcome(small_params, -1.0)


class TestSelectionOutcomes:
    def test_a_column_fills_the_per_pair_cache(self, small_params):
        selection_outcome.cache_clear()
        column = selection_outcomes(small_params, [0.0, 37.5, 37.5, float("inf")])
        info = selection_outcome.cache_info()
        assert (info.misses, info.hits) == (3, 1)
        assert column[1] is column[2]
        # The column's pairs are now hits, evaluated nowhere else.
        assert selection_outcome(small_params, 37.5) is column[1]
        assert selection_outcome.cache_info().misses == 3

    def test_a_cached_pair_is_not_evaluated_again(self, small_params):
        selection_outcome.cache_clear()
        first = selection_outcome(small_params, 80.0)
        assert selection_outcomes(small_params, [80.0])[0] is first
        info = selection_outcome.cache_info()
        assert (info.misses, info.hits) == (1, 1)


#: keyTtls no reader accepts: NaN, a boolean, a non-number, negatives.
BAD_KEY_TTLS = [float("nan"), True, False, "100", None, -1.0, -1e-9]


class TestKeyTtlValidation:
    @pytest.mark.parametrize("key_ttl", [0, 2.5, np.float64(80.0), float("inf")])
    def test_a_real_number_at_least_zero_is_a_key_ttl(self, small_params, key_ttl):
        model = SelectionModel(small_params, key_ttl=key_ttl)
        assert model.key_ttl == float(key_ttl)
        assert selection_outcomes(small_params, [key_ttl])[0] == model.outcome()

    @pytest.mark.parametrize("key_ttl", [t for t in BAD_KEY_TTLS if t is not None])
    def test_the_model_rejects(self, small_params, key_ttl):
        with pytest.raises(ParameterError):
            SelectionModel(small_params, key_ttl=key_ttl)
        if not isinstance(key_ttl, bool):  # True is a cache hit on 1.0
            with pytest.raises(ParameterError):
                selection_outcome(small_params, key_ttl)

    @pytest.mark.parametrize("key_ttl", BAD_KEY_TTLS)
    def test_a_column_rejects_before_evaluating_any(self, small_params, key_ttl):
        selection_outcome.cache_clear()
        with pytest.raises(ParameterError):
            selection_outcomes(small_params, [50.0, key_ttl])
        assert selection_outcome.cache_info().misses == 0
