"""Property-based tests for the Zipf machinery (Eq. 3-5)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.zipf import (
    ZipfDistribution,
    prob_queried,
    rank_probabilities,
)

n_keys_st = st.integers(min_value=1, max_value=5_000)
alpha_st = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
rate_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(n_keys=n_keys_st, alpha=alpha_st)
@settings(max_examples=60, deadline=None)
def test_probabilities_normalised(n_keys, alpha):
    assert abs(rank_probabilities(n_keys, alpha).sum() - 1.0) < 1e-9


@given(n_keys=st.integers(min_value=2, max_value=5_000), alpha=alpha_st)
@settings(max_examples=60, deadline=None)
def test_probabilities_monotone_nonincreasing(n_keys, alpha):
    probs = rank_probabilities(n_keys, alpha)
    assert np.all(np.diff(probs) <= 1e-18)


@given(n_keys=n_keys_st, alpha=alpha_st, rate=rate_st)
@settings(max_examples=60, deadline=None)
def test_prob_queried_is_probability(n_keys, alpha, rate):
    probs = prob_queried(rank_probabilities(n_keys, alpha), rate)
    assert np.all(probs >= 0.0)
    assert np.all(probs <= 1.0)


@given(n_keys=n_keys_st, alpha=alpha_st, rate=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_prob_queried_bounded_by_union_bound(n_keys, alpha, rate):
    # P(>=1 query in a round) <= rate * P(query targets this key). The
    # union bound needs rate >= 1 (Bernoulli's inequality flips below it).
    eq3 = rank_probabilities(n_keys, alpha)
    probs = prob_queried(eq3, rate)
    union = np.minimum(1.0, rate * eq3)
    assert np.all(probs <= union + 1e-12)


@given(n_keys=n_keys_st, alpha=alpha_st)
@settings(max_examples=60, deadline=None)
def test_head_mass_monotone_and_bounded(n_keys, alpha):
    # Eq. 5 of a cut at every rank: 0 for the empty head, then the CDF.
    cdf = np.cumsum(rank_probabilities(n_keys, alpha))
    head = np.concatenate(([0.0], cdf))
    previous = 0.0
    for rank in range(0, n_keys + 1, max(1, n_keys // 7)):
        mass = head[rank]
        assert previous - 1e-12 <= mass <= 1.0 + 1e-12
        previous = mass


@given(n_keys=st.integers(min_value=1, max_value=500), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_samples_always_in_range(n_keys, seed):
    zipf = ZipfDistribution(n_keys, 1.2)
    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = zipf.sample_ranks(rng, 200)
    assert ranks.min() >= 1 and ranks.max() <= n_keys
