"""Differential tests: the scalar Eq. 4 and the cached threshold solve
against the code they replaced.

``reference_probs_queried`` and ``reference_solve_threshold`` are the
pre-optimisation ``ZipfDistribution.probs_queried`` and
``solve_threshold`` kept verbatim: every bisection step evaluates Eq. 4
for *all* keys and reads one element. The scalar path must agree with
them exactly, not approximately — ``==`` on the floats, for every rank —
because a last-ulp difference in ``probT(rank)`` can flip the sign of a
residual and move ``maxRank`` by one, and with it every figure.

Mutations of ``src/`` these tests were run against, and what failed:

* off-by-one rank (``self._probs[rank % n_keys]``): both scalar-vs-vector
  tests and every reference-solve test (11 of 22);
* ``math.log1p`` / ``math.expm1`` for the numpy ufuncs:
  ``test_scalar_eq4_equals_vector_at_sweep_scale`` on CPUs where numpy's
  SIMD loops and libm round differently (this AVX512 builder: 278 of
  320,000 ranks differ), and everywhere ``test_single_key_universe`` and
  the ``n_keys=1`` examples (``math.log1p(-1.0)`` raises where numpy
  returns ``-inf``);
* a cache key that ignores ``alpha``:
  ``test_scenarios_differing_only_in_alpha_do_not_share_a_solve``,
  ``test_cached_solve_equals_reference_solve`` and the ``alpha = 0.8``
  sweep-grid scenarios;
* dropping the ``zipf.alpha`` check in ``solve_threshold``:
  ``test_zipf_of_another_scenario_is_rejected``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import threshold as threshold_module
from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import IndexThreshold, f_min, solve_threshold
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------
def reference_probs_queried(zipf: ZipfDistribution, queries_per_round: float) -> np.ndarray:
    if queries_per_round < 0:
        raise ParameterError(
            f"queries_per_round must be >= 0, got {queries_per_round}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        result = -np.expm1(queries_per_round * np.log1p(-zipf.probs()))
    if queries_per_round == 0:
        return np.zeros_like(zipf.probs())
    return result


def _reference_residual(
    params: ScenarioParameters, zipf: ZipfDistribution, rank: int
) -> float:
    prob_t = float(
        reference_probs_queried(zipf, params.network_query_rate)[rank - 1]
    )
    return prob_t - f_min(params, float(rank))


def reference_solve_threshold(
    params: ScenarioParameters, zipf: ZipfDistribution | None = None
) -> IndexThreshold:
    if zipf is None:
        zipf = ZipfDistribution(params.n_keys, params.alpha)
    elif zipf.n_keys != params.n_keys:
        raise ParameterError(
            f"zipf has {zipf.n_keys} keys but params has {params.n_keys}"
        )

    n = params.n_keys
    if _reference_residual(params, zipf, 1) < 0:
        max_rank = 0
    elif _reference_residual(params, zipf, n) >= 0:
        max_rank = n
    else:
        # Invariant: residual(lo) >= 0 > residual(hi).
        lo, hi = 1, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _reference_residual(params, zipf, mid) >= 0:
                lo = mid
            else:
                hi = mid
        max_rank = lo

    cost_model = CostModel(params=params, indexed_keys=float(max(max_rank, 1)))
    return IndexThreshold(
        params=params,
        max_rank=max_rank,
        f_min=f_min(params, float(max(max_rank, 1))),
        p_indexed=zipf.head_mass(max_rank),
        num_active_peers=params.active_peers_for(max_rank),
        cost_model=cost_model,
    )


# ----------------------------------------------------------------------
# (a) scalar Eq. 4 == the vector's element, bit for bit
# ----------------------------------------------------------------------
n_keys_st = st.integers(min_value=1, max_value=2_000)
alpha_st = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
rate_st = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@given(n_keys=n_keys_st, alpha=alpha_st, rate=rate_st)
@example(n_keys=1, alpha=1.2, rate=3.3)  # p = 1, log1p(-1) = -inf
@example(n_keys=1, alpha=0.0, rate=0.0)
@example(n_keys=7, alpha=0.0, rate=0.5)  # uniform, fractional rate
@example(n_keys=800, alpha=1.2, rate=400 / 7200)
@example(n_keys=2_000, alpha=0.8, rate=0.0)
@settings(max_examples=80, deadline=None)
def test_scalar_eq4_equals_vector_element(n_keys, alpha, rate):
    zipf = ZipfDistribution(n_keys, alpha)
    vector = reference_probs_queried(zipf, rate)
    assert np.array_equal(zipf.probs_queried(rate), vector, equal_nan=True)
    for rank in range(1, n_keys + 1):
        scalar = zipf.prob_queried(rank, rate)
        assert isinstance(scalar, float)
        assert scalar == vector[rank - 1], (rank, scalar, vector[rank - 1])


def test_scalar_eq4_equals_vector_at_sweep_scale():
    # The benchmark's sweep scenario (--scale 8): the size at which
    # numpy's SIMD loops and a libm scalar were measured to disagree.
    zipf = ZipfDistribution(320_000, 1.2)
    rate = 160_000 / 30.0
    vector = reference_probs_queried(zipf, rate)
    scalars = [zipf.prob_queried(rank, rate) for rank in range(1, 320_001)]
    assert scalars == vector.tolist()


def test_single_key_universe():
    zipf = ZipfDistribution(1, 1.2)
    with np.errstate(all="raise"):  # the -inf is expected and hidden
        assert zipf.prob_queried(1, 2.5) == 1.0
        assert zipf.prob_queried(1, 0.0) == 0.0
        assert zipf.probs_queried(0.0).tolist() == [0.0]


def test_zero_rate_skips_the_transcendental_pass(monkeypatch):
    zipf = ZipfDistribution(50, 1.2)

    def boom(*args, **kwargs):
        raise AssertionError("Eq. 4 evaluated for a zero query rate")

    monkeypatch.setattr("repro.analysis.zipf._at_least_once", boom)
    assert zipf.probs_queried(0).tolist() == [0.0] * 50
    assert zipf.prob_queried(3, 0) == 0.0


@pytest.mark.parametrize("rate", [-1e-9, -3.0, float("-inf")])
def test_negative_rate_rejected_by_both_paths(rate):
    zipf = ZipfDistribution(10, 1.2)
    with pytest.raises(ParameterError, match="queries_per_round"):
        zipf.probs_queried(rate)
    with pytest.raises(ParameterError, match="queries_per_round"):
        zipf.prob_queried(1, rate)


@pytest.mark.parametrize("rank", [0, 11, -1])
def test_scalar_path_still_checks_the_rank(rank):
    with pytest.raises(ParameterError, match="rank"):
        ZipfDistribution(10, 1.2).prob_queried(rank, 1.0)


# ----------------------------------------------------------------------
# (b) cached scalar solve == the vector-residual bisection
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw) -> ScenarioParameters:
    num_peers = draw(st.integers(min_value=2, max_value=50_000))
    return ScenarioParameters(
        num_peers=num_peers,
        n_keys=draw(st.integers(min_value=1, max_value=3_000)),
        storage_per_peer=draw(st.integers(min_value=1, max_value=200)),
        replication=draw(st.integers(min_value=1, max_value=min(60, num_peers))),
        alpha=draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False)),
        query_freq=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
            )
        ),
        update_freq=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-7, max_value=1e-2, allow_nan=False),
            )
        ),
        env=draw(st.sampled_from([0.0, 1.0 / 14.0, 0.5])),
    )


def _assert_same_solution(params: ScenarioParameters) -> IndexThreshold:
    solved = solve_threshold(params)
    reference = reference_solve_threshold(params)
    assert solved.max_rank == reference.max_rank
    assert solved.f_min == reference.f_min
    assert solved.p_indexed == reference.p_indexed
    assert solved.num_active_peers == reference.num_active_peers
    assert solved == reference
    return solved


NEVER_PAYS = ScenarioParameters(num_peers=400, n_keys=800, query_freq=0.0)
ALWAYS_PAYS = ScenarioParameters(
    num_peers=400, n_keys=800, update_freq=0.0, env=0.0
)


@given(params=scenarios())
@example(params=NEVER_PAYS)
@example(params=ALWAYS_PAYS)
@example(params=ScenarioParameters(num_peers=2, n_keys=1, replication=1))
@settings(max_examples=120, deadline=None)
def test_cached_solve_equals_reference_solve(params):
    _assert_same_solution(params)


def test_all_three_branches_are_exercised():
    assert _assert_same_solution(NEVER_PAYS).max_rank == 0
    assert _assert_same_solution(ALWAYS_PAYS).max_rank == ALWAYS_PAYS.n_keys
    paper = ScenarioParameters.paper_scenario()
    assert 1 < _assert_same_solution(paper).max_rank < paper.n_keys


@pytest.mark.parametrize("alpha", [0.8, 1.2])
@pytest.mark.parametrize("query_freq", [1 / 30, 1 / 600, 1 / 7200])
def test_sweep_grid_scenarios_equal_reference(alpha, query_freq):
    # The six distinct scenarios of the default sweep grid, at a scale
    # where the reference's n-key pass per step is still affordable.
    params = dataclasses.replace(
        ScenarioParameters.paper_scenario().scaled(0.5), alpha=alpha
    ).with_query_freq(query_freq)
    _assert_same_solution(params)


# ----------------------------------------------------------------------
# (c) one solve per scenario, never one for a different scenario
# ----------------------------------------------------------------------
def _distinct_copy(params: ScenarioParameters) -> ScenarioParameters:
    copy = ScenarioParameters(**dataclasses.asdict(params))
    assert copy == params and copy is not params
    return copy


def test_equal_but_distinct_scenario_is_a_cache_hit():
    params = ScenarioParameters(num_peers=777, n_keys=1_555, query_freq=0.01)
    threshold_module._solve.cache_clear()
    first = solve_threshold(params)
    before = threshold_module._solve.cache_info()
    second = solve_threshold(_distinct_copy(params))
    third = solve_threshold(
        _distinct_copy(params), ZipfDistribution(params.n_keys, params.alpha)
    )
    after = threshold_module._solve.cache_info()
    assert (before.misses, before.hits) == (1, 0)
    assert (after.misses, after.hits) == (1, 2)
    assert first == second == third == reference_solve_threshold(params)


def test_scenarios_differing_only_in_alpha_do_not_share_a_solve():
    base = ScenarioParameters(num_peers=1_000, n_keys=2_000, alpha=1.2)
    other = dataclasses.replace(base, alpha=0.8)
    threshold_module._solve.cache_clear()
    solved_base, solved_other = solve_threshold(base), solve_threshold(other)
    assert threshold_module._solve.cache_info().misses == 2
    assert solved_base.max_rank != solved_other.max_rank
    assert solved_base == reference_solve_threshold(base)
    assert solved_other == reference_solve_threshold(other)


def test_zipf_of_another_scenario_is_rejected():
    params = ScenarioParameters(num_peers=1_000, n_keys=2_000, alpha=1.2)
    solve_threshold(params)  # a cached result must not short-cut the check
    with pytest.raises(ParameterError, match="alpha"):
        solve_threshold(params, ZipfDistribution(2_000, 0.8))
    with pytest.raises(ParameterError, match="keys"):
        solve_threshold(params, ZipfDistribution(1_999, 1.2))


def test_cache_holds_scalars_not_key_tables():
    # peak_rss_mb has a 2% bound: a cached entry (key and value) may not
    # keep an n-key array or a ZipfDistribution alive.
    params = ScenarioParameters(num_peers=500, n_keys=1_000)
    result = solve_threshold(params, ZipfDistribution(1_000, params.alpha))

    def leaves(value):
        if dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                yield from leaves(getattr(value, field.name))
        else:
            yield value

    assert all(isinstance(leaf, (int, float)) for leaf in leaves(result))
