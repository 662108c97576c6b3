"""Tests for the exact optimisers (heuristic-vs-optimal gap)."""

from __future__ import annotations

import pytest

from repro.analysis.optimal import TTL_BOUNDS, optimal_key_ttl, optimal_max_rank
from repro.analysis.selection_model import SelectionModel
from repro.analysis.strategies import (
    cost_index_all,
    cost_no_index,
    cost_partial_ideal,
)
from repro.analysis.threshold import solve_threshold
from repro.analysis.zipf import rank_probabilities


class TestOptimalMaxRank:
    def test_never_worse_than_heuristic(self, paper_params):
        for period in (30, 600, 7200):
            params = paper_params.with_query_freq(1 / period)
            heuristic = cost_partial_ideal(params)
            optimum = optimal_max_rank(params)
            assert optimum.cost <= heuristic + 1e-6

    def test_never_worse_than_baselines(self, paper_params):
        # The optimum ranges over m = 0 (noIndex) and m = keys (indexAll),
        # so it is bounded by both by construction.
        for period in (30, 7200):
            params = paper_params.with_query_freq(1 / period)
            optimum = optimal_max_rank(params)
            assert optimum.cost <= cost_no_index(params) + 1e-6
            assert optimum.cost <= cost_index_all(params) * (1 + 1e-9)

    def test_heuristic_is_near_optimal_at_paper_scale(self, paper_params):
        # The gap is < 1% across the sweep — the paper's rule is a very
        # good approximation in its own scenario.
        for period in (30, 600, 7200):
            params = paper_params.with_query_freq(1 / period)
            heuristic = cost_partial_ideal(params)
            optimum = optimal_max_rank(params)
            assert heuristic / optimum.cost < 1.01

    def test_optimal_rank_near_heuristic_rank(self, paper_params):
        params = paper_params.with_query_freq(1 / 600)
        heuristic = solve_threshold(params).max_rank
        optimum = optimal_max_rank(params).max_rank
        assert 0.5 * heuristic < optimum < 2.0 * heuristic

    def test_cost_matches_eq13_at_chosen_rank(self, small_params):
        import numpy as np

        from repro.analysis.optimal import _partial_costs_all_ranks

        costs, _ = _partial_costs_all_ranks(small_params)
        # Endpoint m=0 must equal the noIndex cost exactly.
        assert costs[0] == pytest.approx(cost_no_index(small_params))
        # Endpoint m=keys must equal indexAll minus nothing (same formula).
        assert costs[-1] == pytest.approx(cost_index_all(small_params), rel=1e-9)

    def test_p_indexed_consistent(self, paper_params):
        import numpy as np

        optimum = optimal_max_rank(paper_params)
        probs = rank_probabilities(paper_params.n_keys, paper_params.alpha)
        assert optimum.max_rank > 0
        # Eq. 5 at the optimal cut, as the CDF reads it: bit for bit.
        assert optimum.p_indexed == np.cumsum(probs)[optimum.max_rank - 1]


class TestOptimalKeyTtl:
    def test_never_worse_than_heuristic_ttl(self, paper_params):
        for period in (600, 7200):
            params = paper_params.with_query_freq(1 / period)
            heuristic_cost = SelectionModel(params).total_cost()
            _, optimal_cost = optimal_key_ttl(params)
            assert optimal_cost <= heuristic_cost * (1 + 1e-3)

    def test_heuristic_gap_grows_at_low_frequency(self, paper_params):
        # The paper: "a too big value [reduces savings] at lower
        # frequencies" — 1/fMin overshoots more as queries get rarer.
        def gap(period):
            params = paper_params.with_query_freq(1 / period)
            heuristic = SelectionModel(params).total_cost()
            _, best = optimal_key_ttl(params)
            return heuristic / best

        assert gap(7200) > gap(600) > gap(30) - 1e-6

    def test_returns_ttl_within_bounds(self, paper_params):
        ttl, _ = optimal_key_ttl(paper_params)
        assert TTL_BOUNDS[0] <= ttl <= TTL_BOUNDS[1]
