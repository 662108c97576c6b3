"""Differential tests: the closed-form planning path against the code it
replaced.

``reference_selection`` is the Eq. 14/15 evaluation as it was written
over a :class:`ZipfDistribution`: build the distribution (probabilities
and CDF), take ``probs_queried`` (Eq. 4) as a vector, then
``-expm1(keyTtl * log1p(-probT))`` and two sums. ``reference_solve`` is
the bisection that built a distribution per scenario and read Eq. 5 off
its CDF (``head_mass``). ``ReferenceZipf`` keeps those per-rank methods
verbatim, as the distribution carried them before it lost them. The
planning path now reads the cached Eq. 3 array, fills one buffer in
place and takes Eq. 5 as a prefix ``cumsum``;
it must agree with them exactly — ``==`` on every float — because a
last-ulp difference in the expected index size moves the selection DHT
size, and a residual's sign moves ``maxRank``.

The one intended difference: where the reference returns NaN (a rank
with ``probT = 0`` at ``keyTtl = inf`` — ``inf * log1p(-0)``), that rank
is never present. The reference applies that rule to its presence vector
and is otherwise verbatim.

Mutations of ``src/`` these tests were run against, and what failed:

* ``np.dot(buf, probs)`` for the ``p_indexed`` sum (BLAS sums in another
  order): ``test_planning_equals_reference``;
* the algebraic shortcut ``log(1 - probT) = rate * log1p(-p)``, skipping
  the ``expm1``/``log1p`` round trip: ``test_planning_equals_reference``;
* an off-by-one Eq. 5 prefix (``probs[:max_rank + 1]`` or
  ``probs[:max_rank - 1]``): ``test_planning_equals_reference`` and the
  sweep-grid rows;
* no ``probT = 0`` guard at ``keyTtl = inf``: the ``fQry = 0`` examples
  (NaN != 0.0, and ``total_cost()`` raises).

A keyTtl column (``selection_outcomes``) shares one prefix between its
keyTtls and must equal each keyTtl's single model, ``==`` again:
``test_column_equals_each_single_model``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import (
    SelectionModel,
    selection_outcome,
    selection_outcomes,
)
from repro.analysis.threshold import IndexThreshold, _solve, f_min
from repro.analysis.zipf import rank_probabilities
from repro.errors import ParameterError

INF = math.inf


# ----------------------------------------------------------------------
# The replaced code, verbatim but for the probT = 0 rule
# ----------------------------------------------------------------------
def _check_query_rate(queries_per_round: float) -> None:
    if queries_per_round < 0:
        raise ParameterError(
            f"queries_per_round must be >= 0, got {queries_per_round}"
        )


def _at_least_once(probs, queries_per_round: float):
    """Eq. 4 for a positive rate, on one Eq. 3 probability or a vector.

    ``1 - (1 - p)^n`` computed stably as ``-expm1(n * log1p(-p))``. For
    the degenerate single-key universe ``p = 1`` and ``log1p(-1) = -inf``,
    which still yields the correct probability of 1; hide the warning.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.expm1(queries_per_round * np.log1p(-probs))


class ReferenceZipf:
    """The per-rank Eq. 3/4/5 methods the references read, as
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

    def prob_queried(self, rank: int, queries_per_round: float) -> float:
        """Probability the key at ``rank`` is queried >= once per round (Eq. 4)."""
        self._check_rank(rank)
        _check_query_rate(queries_per_round)
        if queries_per_round == 0:
            return 0.0
        return float(_at_least_once(self._probs[rank - 1], queries_per_round))

    def probs_queried(self, queries_per_round: float) -> np.ndarray:
        """Vector of Eq. 4 probabilities for all ranks."""
        _check_query_rate(queries_per_round)
        if queries_per_round == 0:
            return np.zeros_like(self._probs)
        return _at_least_once(self._probs, queries_per_round)

    def head_mass(self, max_rank: int) -> float:
        """Total query probability of the ``max_rank`` most popular keys.

        This is Eq. 5 of the paper (``pIndxd`` under ideal partial indexing)
        when ``max_rank = maxRank``.
        """
        if max_rank <= 0:
            return 0.0
        max_rank = min(max_rank, self.n_keys)
        return float(self._cumulative[max_rank - 1])

    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(
                f"rank must be in [1, {self.n_keys}], got {rank}"
            )


def reference_selection(params: ScenarioParameters, key_ttl: float):
    zipf = ReferenceZipf(params.n_keys, params.alpha)
    prob_t = zipf.probs_queried(params.network_query_rate)
    if key_ttl == 0:
        presence = np.zeros_like(prob_t)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            presence = -np.expm1(key_ttl * np.log1p(-prob_t))
        presence[prob_t == 0] = 0.0  # never queried, never present
    model = object.__new__(SelectionModel)
    model.params, model.key_ttl = params, float(key_ttl)
    model.index_size = float(presence.sum())
    model.p_indexed = float((presence * zipf.probs()).sum())
    return model


def reference_solve(params: ScenarioParameters) -> IndexThreshold:
    zipf = ReferenceZipf(params.n_keys, params.alpha)

    def residual(rank: int) -> float:
        prob_t = zipf.prob_queried(rank, params.network_query_rate)
        return prob_t - f_min(params, float(rank))

    n = params.n_keys
    if residual(1) < 0:
        max_rank = 0
    elif residual(n) >= 0:
        max_rank = n
    else:
        lo, hi = 1, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if residual(mid) >= 0:
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


def _assert_planning_equal(params: ScenarioParameters, key_ttl: float) -> None:
    _solve.cache_clear()  # a cached solve must not stand in for the new one
    solved, reference = _solve(params), reference_solve(params)
    assert solved.max_rank == reference.max_rank
    assert solved.f_min == reference.f_min
    assert solved.p_indexed == reference.p_indexed
    assert solved == reference

    model = SelectionModel(params, key_ttl=key_ttl)
    expected = reference_selection(params, key_ttl)
    assert model.index_size == expected.index_size
    assert model.p_indexed == expected.p_indexed
    assert model.total_cost() == expected.total_cost()
    default = SelectionModel(params)  # keyTtl = 1/fMin of the solve
    assert default.index_size == reference_selection(
        params, reference.key_ttl
    ).index_size


# ----------------------------------------------------------------------
# Generated scenarios
# ----------------------------------------------------------------------
key_ttls = st.one_of(
    st.sampled_from([0.0, 1e12, INF]),
    st.floats(min_value=1e-6, max_value=0.999),  # below one round
    st.floats(min_value=1.0, max_value=5e4),  # fractional
    st.integers(min_value=1, max_value=10_000).map(float),
)


@st.composite
def scenarios(draw) -> ScenarioParameters:
    n_keys = draw(st.integers(min_value=1, max_value=3_000))
    num_peers = draw(st.integers(min_value=2, max_value=20_000))
    # network-wide rate from 0 to above the key count
    rate = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=1.0),
            st.floats(min_value=1.0, max_value=3.0 * n_keys),
        )
    )
    return ScenarioParameters(
        num_peers=num_peers,
        n_keys=n_keys,
        storage_per_peer=draw(st.integers(min_value=1, max_value=200)),
        replication=draw(st.integers(min_value=1, max_value=min(60, num_peers))),
        alpha=draw(st.floats(min_value=0.0, max_value=4.0)),
        query_freq=rate / num_peers,
        update_freq=draw(
            st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-2))
        ),
        env=draw(st.sampled_from([0.0, 1.0 / 14.0, 0.5])),
    )


SMALL = ScenarioParameters(num_peers=400, n_keys=800)


@given(params=scenarios(), key_ttl=key_ttls)
@example(params=SMALL.with_query_freq(0.0), key_ttl=0.0)
@example(params=SMALL.with_query_freq(0.0), key_ttl=1.0)
@example(params=SMALL.with_query_freq(0.0), key_ttl=INF)
@example(params=ScenarioParameters(num_peers=2, n_keys=1, replication=1), key_ttl=INF)
@example(  # uniform, rate above the key count, fractional keyTtl
    params=dataclasses.replace(SMALL, alpha=0.0, query_freq=3.0), key_ttl=2.5
)
@example(  # rank^-alpha underflows to 0 for the tail: probT = 0 there
    params=dataclasses.replace(SMALL, n_keys=2_000, alpha=120.0), key_ttl=INF
)
@settings(max_examples=150, deadline=None)
def test_planning_equals_reference(params, key_ttl):
    _assert_planning_equal(params, key_ttl)


@pytest.mark.parametrize("alpha", [0.8, 1.2])
@pytest.mark.parametrize("query_freq", [1 / 30, 1 / 600, 1 / 7200])
def test_sweep_grid_scenarios_equal_reference(alpha, query_freq):
    # The six scenarios of the default sweep grid at --scale 8 (320,000
    # keys), where the benchmark's planning runs, at the paper's keyTtl
    # and at the half and double the sweep's keyTtl axis uses.
    params = dataclasses.replace(
        ScenarioParameters.paper_scenario().scaled(8), alpha=alpha
    ).with_query_freq(query_freq)
    key_ttl = reference_solve(params).key_ttl
    for ttl in (key_ttl, 0.5 * key_ttl, 2.0 * key_ttl):
        _assert_planning_equal(params, ttl)


@given(params=scenarios(), column=st.lists(key_ttls, min_size=1, max_size=6))
@example(params=SMALL.with_query_freq(0.0), column=[0.0, 2.5, 1e12, INF])
@example(params=SMALL, column=[0.0, 0.5, 2.5, 1e12, INF, 2.5])
@example(  # rank^-alpha underflows to 0 for the tail: probT = 0 there
    params=dataclasses.replace(SMALL, n_keys=2_000, alpha=120.0),
    column=[INF, 3.0],
)
@settings(max_examples=100, deadline=None)
def test_column_equals_each_single_model(params, column):
    selection_outcome.cache_clear()  # every pair is evaluated in the column
    assert selection_outcomes(params, column) == [
        SelectionModel(params, key_ttl=key_ttl).outcome() for key_ttl in column
    ]
