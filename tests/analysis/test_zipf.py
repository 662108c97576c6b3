"""Tests for the Zipf machinery: Eq. 3 (``rank_probabilities``), Eq. 4
(``prob_queried``), Eq. 5 as a prefix sum of Eq. 3, and drawing
(``ZipfDistribution``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import zipf as zipf_module
from repro.analysis.zipf import (
    ZipfDistribution,
    prob_queried,
    rank_probabilities,
)
from repro.errors import ParameterError


def head_mass(n_keys: int, alpha: float, max_rank: int) -> float:
    """Eq. 5 as the planning takes it: the last entry of ``cumsum`` over
    the ``max_rank`` hottest keys."""
    head = np.cumsum(rank_probabilities(n_keys, alpha)[:max_rank])
    return float(head[-1]) if head.size else 0.0


class TestConstruction:
    def test_rejects_zero_keys(self):
        with pytest.raises(ParameterError):
            ZipfDistribution(0, 1.2)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ParameterError):
            ZipfDistribution(10, -0.5)

    @pytest.mark.parametrize(
        "n_keys, alpha",
        [
            (10, float("nan")),  # every draw would be rank 1
            (10, float("inf")),
            (10, True),
            (True, 1.2),
            (2.5, 1.2),  # would silently be 2 keys
            (np.float64(10.0), 1.2),
            (10, "1.2"),
        ],
    )
    def test_rejects_what_scenario_parameters_reject(self, n_keys, alpha):
        with pytest.raises(ParameterError):
            ZipfDistribution(n_keys, alpha)

    def test_numpy_numbers_stay_valid(self):
        zipf = ZipfDistribution(np.int64(10), np.float64(1.2))
        assert (zipf.n_keys, zipf.alpha) == (10, 1.2)
        assert type(zipf.n_keys) is int and type(zipf.alpha) is float


class TestEq3:
    def test_probabilities_sum_to_one(self):
        assert rank_probabilities(1000, 1.2).sum() == pytest.approx(1.0)

    def test_probabilities_decrease_with_rank(self):
        probs = rank_probabilities(100, 1.2)
        assert np.all(np.diff(probs) < 0)

    def test_rank1_matches_closed_form(self):
        n, alpha = 50, 1.2
        normaliser = sum(x ** -alpha for x in range(1, n + 1))
        expected = 1.0 / normaliser
        assert rank_probabilities(n, alpha)[0] == pytest.approx(expected)

    def test_alpha_zero_is_uniform(self):
        probs = rank_probabilities(10, 0.0)
        for rank in range(1, 11):
            assert probs[rank - 1] == pytest.approx(0.1)

    def test_paper_alpha_head_mass(self):
        # With alpha = 1.2 over 40,000 keys the head is heavy: the top 1%
        # of keys captures well over half the query mass.
        assert head_mass(40_000, 1.2, 400) > 0.5

    def test_instances_share_one_cached_array(self):
        # Every distribution of one (n_keys, alpha) shares one read-only
        # CDF, the cumulative sum of Eq. 3 bit for bit, and holds no
        # other array: not Eq. 3.
        first, second = ZipfDistribution(5_000, 0.9), ZipfDistribution(5_000, 0.9)
        assert first._cumulative is second._cumulative
        assert not first._cumulative.flags.writeable
        cached = rank_probabilities(5_000, 0.9)
        assert np.array_equal(
            first._cumulative.view(np.int64), np.cumsum(cached).view(np.int64)
        )
        for distribution in (first, second):
            arrays = [
                value for value in vars(distribution).values()
                if isinstance(value, np.ndarray)
            ]
            assert arrays == [distribution._cumulative]

    def test_a_cdf_summed_without_a_cached_eq3_is_the_same(self):
        # With no Eq. 3 array alive the CDF is summed from a fresh one,
        # which is not cached; it equals the cached one's sum bit for bit.
        zipf_module._last_cdf.clear()
        rank_probabilities.cache_clear()
        fresh = ZipfDistribution(5_001, 1.1)._cumulative
        assert rank_probabilities.cache_info().currsize == 0
        assert (5_001, 1.1) not in zipf_module._alive
        zipf_module._last_cdf.clear()
        cached = rank_probabilities(5_001, 1.1)
        summed = ZipfDistribution(5_001, 1.1)._cumulative
        assert fresh is not summed
        assert np.array_equal(summed.view(np.int64), fresh.view(np.int64))
        assert np.array_equal(fresh, np.cumsum(cached))

    def test_cached_array_is_read_only(self):
        with pytest.raises(ValueError):
            rank_probabilities(10, 1.0)[0] = 0.5


class TestEq4:
    def test_zero_rate_means_never_queried(self):
        assert np.all(prob_queried(rank_probabilities(100, 1.2), 0.0) == 0.0)

    def test_matches_direct_formula(self):
        rate = 7.5
        p = rank_probabilities(100, 1.2)[2]
        expected = 1.0 - (1.0 - p) ** rate
        assert prob_queried(p, rate) == pytest.approx(expected)

    def test_monotone_in_rate(self):
        probs = rank_probabilities(100, 1.2)
        low = prob_queried(probs, 1.0)
        high = prob_queried(probs, 10.0)
        assert np.all(high >= low)

    def test_monotone_decreasing_in_rank(self):
        probs = prob_queried(rank_probabilities(100, 1.2), 5.0)
        assert np.all(np.diff(probs) <= 0)

    def test_bounded_in_unit_interval(self):
        probs = prob_queried(rank_probabilities(50, 2.0), 1e6)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_high_rate_saturates_head(self):
        top = rank_probabilities(100, 1.2)[0]
        assert prob_queried(top, 1e6) == pytest.approx(1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            prob_queried(rank_probabilities(10, 1.0), -1.0)

    def test_single_key_universe(self):
        (p,) = rank_probabilities(1, 1.2)
        assert p == pytest.approx(1.0)
        assert prob_queried(p, 3.0) == pytest.approx(1.0)


class TestAggregates:
    def test_head_mass_zero_rank(self):
        assert head_mass(10, 1.0, 0) == 0.0

    def test_head_mass_full_universe_is_one(self):
        assert head_mass(10, 1.0, 10) == pytest.approx(1.0)

    def test_head_mass_clamps_beyond_universe(self):
        assert head_mass(10, 1.0, 99) == pytest.approx(1.0)


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
        expected = head_mass(100, 1.2, 10)
        assert empirical_head == pytest.approx(expected, abs=0.02)

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
        assert zipf._cumulative[-1] < top
        uniforms = np.full(size, top)
        uniforms[1::2] = 0.0
        ranks = zipf.sample_ranks(scripted_uniforms(uniforms), size)
        assert (ranks[0::2] == zipf.n_keys).all()
        assert (ranks[1::2] == 1).all()
