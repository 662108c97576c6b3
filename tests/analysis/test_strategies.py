"""Tests for the strategy cost models (Eq. 11-13)."""

from __future__ import annotations

import pytest

from repro.analysis.strategies import (
    cost_index_all,
    cost_no_index,
    cost_partial_ideal,
    evaluate_strategies,
)
from repro.analysis.threshold import solve_threshold


class TestEq11IndexAll:
    def test_decomposition(self, paper_params):
        from repro.analysis.costs import CostModel

        model = CostModel.full_index(paper_params)
        expected = (
            paper_params.n_keys * model.index_key
            + paper_params.network_query_rate * model.search_index
        )
        assert cost_index_all(paper_params) == pytest.approx(expected)

    def test_roughly_flat_in_query_freq(self, paper_params):
        # Fig. 1: indexAll is maintenance-dominated, so it barely moves
        # across the whole frequency sweep (25.2k -> 20.5k msg/s).
        busy = cost_index_all(paper_params.with_query_freq(1 / 30))
        calm = cost_index_all(paper_params.with_query_freq(1 / 7200))
        assert busy / calm < 1.5

    def test_paper_scale_band(self, paper_params):
        assert 20_000 < cost_index_all(paper_params) < 30_000


class TestEq12NoIndex:
    def test_linear_in_query_freq(self, paper_params):
        busy = cost_no_index(paper_params.with_query_freq(1 / 30))
        calm = cost_no_index(paper_params.with_query_freq(1 / 60))
        assert busy == pytest.approx(2 * calm)

    def test_paper_anchor(self, paper_params):
        # 20,000/30 queries/s x 720 msg = 480,000 msg/s.
        assert cost_no_index(paper_params) == pytest.approx(480_000.0)


class TestEq13Partial:
    def test_below_both_baselines_everywhere(self, paper_params):
        # The headline claim of Fig. 1/2.
        for period in (30, 60, 120, 300, 600, 1800, 3600, 7200):
            params = paper_params.with_query_freq(1 / period)
            costs = evaluate_strategies(params)
            assert costs.partial < costs.index_all, f"period {period}"
            assert costs.partial < costs.no_index, f"period {period}"

    def test_accepts_presolved_threshold(self, paper_params):
        threshold = solve_threshold(paper_params)
        direct = cost_partial_ideal(paper_params)
        reused = cost_partial_ideal(paper_params, threshold)
        assert direct == pytest.approx(reused)

    def test_decomposition(self, paper_params):
        threshold = solve_threshold(paper_params)
        model = threshold.cost_model
        rate = paper_params.network_query_rate
        expected = (
            threshold.max_rank * model.index_key
            + threshold.p_indexed * rate * model.search_index
            + (1 - threshold.p_indexed) * rate * model.search_unstructured
        )
        assert cost_partial_ideal(paper_params, threshold) == pytest.approx(expected)


class TestSavings:
    def test_savings_vs_no_index_grow_with_freq(self, paper_params):
        busy = evaluate_strategies(paper_params.with_query_freq(1 / 30))
        calm = evaluate_strategies(paper_params.with_query_freq(1 / 7200))
        assert busy.savings_vs_no_index > calm.savings_vs_no_index

    def test_savings_vs_index_all_grow_as_freq_drops(self, paper_params):
        busy = evaluate_strategies(paper_params.with_query_freq(1 / 30))
        calm = evaluate_strategies(paper_params.with_query_freq(1 / 7200))
        assert calm.savings_vs_index_all > busy.savings_vs_index_all

    def test_savings_bounded_by_one(self, paper_params):
        costs = evaluate_strategies(paper_params)
        assert costs.savings_vs_index_all <= 1.0
        assert costs.savings_vs_no_index <= 1.0

    def test_ideal_savings_positive_everywhere(self, paper_params):
        # Fig. 2 shows strictly positive savings against both baselines.
        for period in (30, 600, 7200):
            costs = evaluate_strategies(paper_params.with_query_freq(1 / period))
            assert costs.savings_vs_index_all > 0
            assert costs.savings_vs_no_index > 0

    def test_best_baseline_flips_across_sweep(self, paper_params):
        busy = evaluate_strategies(paper_params.with_query_freq(1 / 30))
        calm = evaluate_strategies(paper_params.with_query_freq(1 / 7200))
        assert busy.index_all <= busy.no_index  # indexAll is the cheaper baseline
        assert calm.index_all > calm.no_index  # noIndex is
