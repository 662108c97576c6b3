"""Tests for fMin / maxRank / pIndxd (Eq. 1, 2, 5)."""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import f_min, solve_threshold
from repro.analysis.zipf import prob_queried, rank_probabilities


class TestFmin:
    def test_fmin_positive_at_paper_scale(self, paper_params):
        value = f_min(paper_params, 40_000)
        assert 0 < value < 1

    def test_fmin_matches_eq2(self, paper_params):
        from repro.analysis.costs import CostModel

        model = CostModel.full_index(paper_params)
        expected = model.index_key / (model.search_unstructured - model.search_index)
        assert f_min(paper_params, 40_000) == pytest.approx(expected)

    def test_fmin_infinite_when_index_not_cheaper(self):
        # A tiny network where broadcast reaches a replica almost instantly
        # but the index lookup still needs hops.
        params = ScenarioParameters(
            num_peers=64, n_keys=1000, replication=64, storage_per_peer=1
        )
        assert f_min(params, 1000) == float("inf")

    def test_fmin_grows_with_env(self, paper_params):
        from dataclasses import replace

        cheap = f_min(replace(paper_params, env=1 / 28), 40_000)
        costly = f_min(replace(paper_params, env=1 / 7), 40_000)
        assert costly > cheap


class TestSolveThreshold:
    def test_busy_network_indexes_more(self, paper_params):
        busy = solve_threshold(paper_params.with_query_freq(1 / 30))
        calm = solve_threshold(paper_params.with_query_freq(1 / 7200))
        assert busy.max_rank > calm.max_rank

    def test_paper_scale_busy_band(self, paper_params):
        # At fQry = 1/30 the model indexes a large majority-but-not-all
        # slice of the 40,000 keys (our run: ~25,600).
        threshold = solve_threshold(paper_params.with_query_freq(1 / 30))
        assert 15_000 < threshold.max_rank < 35_000

    def test_paper_scale_calm_band(self, paper_params):
        # At fQry = 1/7200 only a few hundred hot keys stay indexed.
        threshold = solve_threshold(paper_params.with_query_freq(1 / 7200))
        assert 100 < threshold.max_rank < 1_500

    def test_p_indexed_exceeds_index_fraction(self, paper_params):
        # Zipf head effect (Fig. 3): a small index answers a large share.
        threshold = solve_threshold(paper_params.with_query_freq(1 / 600))
        assert threshold.p_indexed > 3 * threshold.index_fraction

    def test_residual_signs_bracket_max_rank(self, paper_params):
        params = paper_params.with_query_freq(1 / 600)
        probs = rank_probabilities(params.n_keys, params.alpha)
        threshold = solve_threshold(params)
        m = threshold.max_rank
        assert 0 < m < params.n_keys
        rate = params.network_query_rate
        assert prob_queried(probs[m - 1], rate) >= f_min(params, m)
        assert prob_queried(probs[m], rate) < f_min(params, m + 1)

    def test_empty_index_when_indexing_never_pays(self):
        params = ScenarioParameters(
            num_peers=64, n_keys=1000, replication=64, storage_per_peer=1
        )
        threshold = solve_threshold(params)
        assert threshold.max_rank == 0
        assert threshold.p_indexed == 0.0
        assert threshold.key_ttl == 0.0

    def test_full_index_when_everything_hot(self):
        # Few keys, many peers, huge query rate: every key clears fMin.
        params = ScenarioParameters(
            num_peers=20_000, n_keys=100, query_freq=10.0
        )
        threshold = solve_threshold(params)
        assert threshold.max_rank == 100
        assert threshold.p_indexed == pytest.approx(1.0)

    def test_key_ttl_is_reciprocal_fmin(self, paper_params):
        threshold = solve_threshold(paper_params)
        assert threshold.key_ttl == pytest.approx(1.0 / threshold.f_min)

    def test_num_active_peers_consistent(self, paper_params):
        threshold = solve_threshold(paper_params)
        assert threshold.num_active_peers == paper_params.active_peers_for(
            threshold.max_rank
        )

