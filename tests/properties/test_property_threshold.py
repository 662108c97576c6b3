"""Differential tests: Eq. 4 on one element and the cached threshold
solve against the code they replaced.

``ReferenceZipf`` keeps, verbatim, the per-rank Eq. 3/4/5 methods that
``ZipfDistribution`` carried before the closed-form model stopped
building distributions; ``reference_probs_queried`` and
``reference_solve_threshold`` are the pre-optimisation
``ZipfDistribution.probs_queried`` and ``solve_threshold`` kept verbatim
over it: every bisection step evaluates Eq. 4 for *all* keys and reads
one element. The element path (:func:`~repro.analysis.zipf.prob_queried`
on ``probs[rank - 1]``, what the bisection evaluates) must agree with
them exactly, not approximately — ``==`` on the floats, for every rank —
because a last-ulp difference in ``probT(rank)`` can flip the sign of a
residual and move ``maxRank`` by one, and with it every figure.

Mutations of ``src/`` these tests were run against, and what failed:

* an off-by-one rank in the bisection's read (``probs[rank % n_keys]``):
  nine tests, every reference-solve test but one sweep-grid row;
* ``math.log1p`` / ``math.expm1`` for the numpy ufuncs on a scalar:
  ``test_scalar_eq4_equals_vector_at_sweep_scale`` and
  ``test_scalar_eq4_equals_vector_element`` on CPUs where numpy's SIMD
  loops and libm round differently (on one AVX512 machine 278 of
  320,000 ranks differed), and everywhere ``test_single_key_universe``
  and the ``n_keys=1`` examples (``math.log1p(-1.0)`` raises where numpy
  returns ``-inf``);
* Eq. 4 evaluated before the zero-rate rule, its result then dropped:
  ``test_zero_rate_skips_the_transcendental_pass``;
* a cache key that ignores ``alpha``:
  ``test_scenarios_differing_only_in_alpha_do_not_share_a_solve``,
  ``test_cached_solve_equals_reference_solve`` and the ``alpha = 0.8``
  sweep-grid scenarios.
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
from repro.analysis.zipf import prob_queried, rank_probabilities
from repro.errors import ParameterError


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------
class ReferenceZipf:
    """The Eq. 3/5 methods ``reference_solve_threshold`` read, as
    ``ZipfDistribution`` carried them."""

    def __init__(self, n_keys: int, alpha: float) -> None:
        if n_keys < 1:
            raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
        if alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {alpha}")
        self.n_keys = int(n_keys)
        self.alpha = float(alpha)
        self._probs = rank_probabilities(self.n_keys, self.alpha)
        self._cumulative = np.cumsum(self._probs)

    def probs(self) -> np.ndarray:
        """Vector of Eq. 3 probabilities for ranks ``1..n_keys`` (read-only)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    def head_mass(self, max_rank: int) -> float:
        """Total query probability of the ``max_rank`` most popular keys.

        This is Eq. 5 of the paper (``pIndxd`` under ideal partial indexing)
        when ``max_rank = maxRank``.
        """
        if max_rank <= 0:
            return 0.0
        max_rank = min(max_rank, self.n_keys)
        return float(self._cumulative[max_rank - 1])


def reference_probs_queried(zipf: ReferenceZipf, queries_per_round: float) -> np.ndarray:
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
    params: ScenarioParameters, zipf: ReferenceZipf, rank: int
) -> float:
    prob_t = float(
        reference_probs_queried(zipf, params.network_query_rate)[rank - 1]
    )
    return prob_t - f_min(params, float(rank))


def reference_solve_threshold(
    params: ScenarioParameters, zipf: ReferenceZipf | None = None
) -> IndexThreshold:
    if zipf is None:
        zipf = ReferenceZipf(params.n_keys, params.alpha)
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
# (a) Eq. 4 on one element == the vector's element, bit for bit
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
    zipf = ReferenceZipf(n_keys, alpha)
    probs = rank_probabilities(n_keys, alpha)
    vector = reference_probs_queried(zipf, rate)
    assert np.array_equal(prob_queried(probs, rate), vector, equal_nan=True)
    for rank in range(1, n_keys + 1):
        scalar = prob_queried(probs[rank - 1], rate)
        assert isinstance(scalar, float)
        assert scalar == vector[rank - 1], (rank, scalar, vector[rank - 1])


def test_scalar_eq4_equals_vector_at_sweep_scale():
    # The benchmark's sweep scenario (--scale 8): the size at which
    # numpy's SIMD loops and a libm scalar were measured to disagree.
    zipf = ReferenceZipf(320_000, 1.2)
    probs = rank_probabilities(320_000, 1.2)
    rate = 160_000 / 30.0
    vector = reference_probs_queried(zipf, rate)
    scalars = [prob_queried(p, rate) for p in probs]
    assert scalars == vector.tolist()


def test_single_key_universe():
    probs = rank_probabilities(1, 1.2)
    with np.errstate(all="raise"):  # the -inf is expected and hidden
        assert prob_queried(probs[0], 2.5) == 1.0
        assert prob_queried(probs[0], 0.0) == 0.0
        assert prob_queried(probs, 0.0).tolist() == [0.0]


class _NoArithmetic(np.ndarray):
    """Probabilities on which every ufunc raises."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("Eq. 4 evaluated for a zero query rate")


def test_zero_rate_skips_the_transcendental_pass(monkeypatch):
    probs = rank_probabilities(50, 1.2).view(_NoArithmetic)

    def boom(*args, **kwargs):
        raise AssertionError("Eq. 4 evaluated for a zero query rate")

    # A plain float element reaches numpy's functions, not an ndarray's
    # ufunc override.
    monkeypatch.setattr(np, "log1p", boom)
    monkeypatch.setattr(np, "expm1", boom)
    assert prob_queried(probs, 0).tolist() == [0.0] * 50
    assert prob_queried(probs[2:3].reshape(()), 0) == 0.0
    assert prob_queried(float(probs[2]), 0) == 0.0


@pytest.mark.parametrize("rate", [-1e-9, -3.0, float("-inf")])
def test_negative_rate_rejected_by_both_paths(rate):
    probs = rank_probabilities(10, 1.2)
    with pytest.raises(ParameterError, match="queries_per_round"):
        prob_queried(probs, rate)
    with pytest.raises(ParameterError, match="queries_per_round"):
        prob_queried(probs[0], rate)


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
    third = solve_threshold(_distinct_copy(params))
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


def test_cache_holds_scalars_not_key_tables():
    # peak_rss_mb has a 2% bound: a cached entry (key and value) may not
    # keep an n-key array or a ZipfDistribution alive.
    params = ScenarioParameters(num_peers=500, n_keys=1_000)
    result = solve_threshold(params)

    def leaves(value):
        if dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                yield from leaves(getattr(value, field.name))
        else:
            yield value

    assert all(isinstance(leaf, (int, float)) for leaf in leaves(result))
