"""Tests for the selection-algorithm model (Eq. 14-17)."""

from __future__ import annotations

import pytest

from repro.analysis.selection_model import SelectionModel, selection_outcome
from repro.analysis.strategies import cost_index_all, cost_no_index
from repro.analysis.threshold import solve_threshold
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError


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
        import numpy as np

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
        import numpy as np

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
