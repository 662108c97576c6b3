"""Tests for the Zipf machinery (Eq. 3-4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.zipf import (
    ZipfDistribution,
    rank_probabilities,
    truncated_zeta,
)
from repro.errors import ParameterError


class TestConstruction:
    def test_rejects_zero_keys(self):
        with pytest.raises(ParameterError):
            ZipfDistribution(0, 1.2)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ParameterError):
            ZipfDistribution(10, -0.5)

    def test_equality_and_hash(self):
        assert ZipfDistribution(10, 1.2) == ZipfDistribution(10, 1.2)
        assert hash(ZipfDistribution(10, 1.2)) == hash(ZipfDistribution(10, 1.2))
        assert ZipfDistribution(10, 1.2) != ZipfDistribution(10, 1.1)


class TestEq3:
    def test_probabilities_sum_to_one(self):
        zipf = ZipfDistribution(1000, 1.2)
        assert zipf.probs().sum() == pytest.approx(1.0)

    def test_probabilities_decrease_with_rank(self):
        zipf = ZipfDistribution(100, 1.2)
        probs = zipf.probs()
        assert np.all(np.diff(probs) < 0)

    def test_rank1_matches_closed_form(self):
        n, alpha = 50, 1.2
        zipf = ZipfDistribution(n, alpha)
        expected = 1.0 / truncated_zeta(n, alpha)
        assert zipf.prob(1) == pytest.approx(expected)

    def test_alpha_zero_is_uniform(self):
        zipf = ZipfDistribution(10, 0.0)
        for rank in range(1, 11):
            assert zipf.prob(rank) == pytest.approx(0.1)

    def test_paper_alpha_head_mass(self):
        # With alpha = 1.2 over 40,000 keys the head is heavy: the top 1%
        # of keys captures well over half the query mass.
        zipf = ZipfDistribution(40_000, 1.2)
        assert zipf.head_mass(400) > 0.5

    def test_instances_share_one_cached_array(self):
        # Eq. 3 is held once per (n_keys, alpha); each distribution adds
        # only its own CDF.
        first, second = ZipfDistribution(5_000, 0.9), ZipfDistribution(5_000, 0.9)
        cached = rank_probabilities(5_000, 0.9)
        assert first._probs is cached and second._probs is cached
        assert not cached.flags.writeable
        assert not np.shares_memory(first._cumulative, second._cumulative)
        assert np.array_equal(first._cumulative, np.cumsum(cached))

    def test_rank_out_of_range_rejected(self):
        zipf = ZipfDistribution(10, 1.0)
        with pytest.raises(ParameterError):
            zipf.prob(0)
        with pytest.raises(ParameterError):
            zipf.prob(11)

    def test_probs_view_is_read_only(self):
        zipf = ZipfDistribution(10, 1.0)
        with pytest.raises(ValueError):
            zipf.probs()[0] = 0.5


class TestEq4:
    def test_zero_rate_means_never_queried(self):
        zipf = ZipfDistribution(100, 1.2)
        assert np.all(zipf.probs_queried(0.0) == 0.0)

    def test_matches_direct_formula(self):
        zipf = ZipfDistribution(100, 1.2)
        rate = 7.5
        p = zipf.prob(3)
        expected = 1.0 - (1.0 - p) ** rate
        assert zipf.prob_queried(3, rate) == pytest.approx(expected)

    def test_monotone_in_rate(self):
        zipf = ZipfDistribution(100, 1.2)
        low = zipf.probs_queried(1.0)
        high = zipf.probs_queried(10.0)
        assert np.all(high >= low)

    def test_monotone_decreasing_in_rank(self):
        zipf = ZipfDistribution(100, 1.2)
        probs = zipf.probs_queried(5.0)
        assert np.all(np.diff(probs) <= 0)

    def test_bounded_in_unit_interval(self):
        zipf = ZipfDistribution(50, 2.0)
        probs = zipf.probs_queried(1e6)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_high_rate_saturates_head(self):
        zipf = ZipfDistribution(100, 1.2)
        assert zipf.prob_queried(1, 1e6) == pytest.approx(1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            ZipfDistribution(10, 1.0).probs_queried(-1.0)

    def test_single_key_universe(self):
        zipf = ZipfDistribution(1, 1.2)
        assert zipf.prob(1) == pytest.approx(1.0)
        assert zipf.prob_queried(1, 3.0) == pytest.approx(1.0)


class TestAggregates:
    def test_head_mass_zero_rank(self):
        assert ZipfDistribution(10, 1.0).head_mass(0) == 0.0

    def test_head_mass_full_universe_is_one(self):
        assert ZipfDistribution(10, 1.0).head_mass(10) == pytest.approx(1.0)

    def test_head_mass_clamps_beyond_universe(self):
        assert ZipfDistribution(10, 1.0).head_mass(99) == pytest.approx(1.0)


class TestSampling:
    def test_sample_ranks_in_range(self, rng):
        zipf = ZipfDistribution(50, 1.2)
        ranks = zipf.sample_ranks(rng, 1000)
        assert ranks.min() >= 1
        assert ranks.max() <= 50

    def test_sample_empirical_matches_head_mass(self, rng):
        zipf = ZipfDistribution(100, 1.2)
        ranks = zipf.sample_ranks(rng, 20_000)
        empirical_head = np.mean(ranks <= 10)
        assert empirical_head == pytest.approx(zipf.head_mass(10), abs=0.02)

    def test_sample_zero_size(self, rng):
        assert len(ZipfDistribution(10, 1.0).sample_ranks(rng, 0)) == 0

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ParameterError):
            ZipfDistribution(10, 1.0).sample_ranks(rng, -1)

    @pytest.mark.parametrize("size", [2, 5000])  # either side of the guide cutoff
    def test_uniform_above_the_last_cdf_entry_is_the_last_rank(
        self, scripted_uniforms, size
    ):
        # cumsum stops a few ulp short of 1 at the paper's default scale;
        # a uniform in that sliver used to come back as rank n_keys + 1.
        zipf = ZipfDistribution(40_000, 1.2)
        top = np.nextafter(1.0, 0.0)
        assert zipf.head_mass(zipf.n_keys) < top
        uniforms = np.full(size, top)
        uniforms[1::2] = 0.0
        ranks = zipf.sample_ranks(scripted_uniforms(uniforms), size)
        assert (ranks[0::2] == zipf.n_keys).all()
        assert (ranks[1::2] == 1).all()
