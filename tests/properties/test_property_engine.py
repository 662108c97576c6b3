"""Property-based tests for the round clock and the analytical model."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import SelectionModel
from repro.analysis.strategies import evaluate_strategies
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.node import PeerPopulation
from repro.sim.engine import Simulation

time_list_st = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50
)


class _FirstDelays:
    """An rng stand-in: every peer starts online, peer i's first session
    lasts ``delays[i]`` and no later one ends before the test does."""

    def __init__(self, delays: list[float]) -> None:
        self._delays = iter(delays)

    def random(self) -> float:
        return 0.0

    def exponential(self, mean: float) -> float:
        return next(self._delays, 1e9)


def _clock(times: list[float]) -> tuple[Simulation, list[int], list[float]]:
    """A clock whose peer i leaves at ``times[i]``; returns it, the log of
    peers as they leave and the log of round-hook times."""
    population = PeerPopulation(len(times))
    churn = ChurnProcess(
        population, ChurnConfig(mean_session=1.0, mean_offline=1.0),
        _FirstDelays(times),
    )
    churn.start()
    left: list[int] = []
    set_online = population.set_online
    population.set_online = lambda peer, online: (
        left.append(peer), set_online(peer, online)
    )
    hooks: list[float] = []
    sim = Simulation(churn, lambda: hooks.append(sim.now))
    return sim, left, hooks


@given(times=time_list_st)
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_time_order(times):
    sim, left, hooks = _clock(times)
    sim.run(until=1001.0)
    assert left == sorted(range(len(times)), key=lambda i: times[i])
    assert hooks == [float(k) for k in range(1, 1002)]


@given(times=time_list_st, cutoff=st.floats(min_value=0.0, max_value=1000.0))
@settings(max_examples=60, deadline=None)
def test_run_boundary_is_inclusive_exact(times, cutoff):
    sim, left, hooks = _clock(times)
    sim.run(until=cutoff)
    assert sorted(left) == [i for i, t in enumerate(times) if t <= cutoff]
    assert len(hooks) == int(cutoff)
    assert sim.processed_events == len(left) + len(hooks)


params_st = st.builds(
    ScenarioParameters,
    num_peers=st.integers(min_value=100, max_value=50_000),
    n_keys=st.integers(min_value=100, max_value=50_000),
    storage_per_peer=st.integers(min_value=10, max_value=500),
    replication=st.integers(min_value=2, max_value=100),
    alpha=st.floats(min_value=0.5, max_value=2.0),
    query_freq=st.floats(min_value=1e-5, max_value=0.2),
    update_freq=st.floats(min_value=0.0, max_value=1e-3),
    env=st.floats(min_value=1e-3, max_value=1.0),
    dup=st.floats(min_value=1.0, max_value=4.0),
    dup2=st.floats(min_value=1.0, max_value=4.0),
)


@given(params=params_st)
@settings(max_examples=40, deadline=None)
def test_ideal_partial_never_loses_to_no_index(params):
    """Eq. 13 <= Eq. 12 is a theorem of the model — given one round of
    traffic.

    Every indexed rank r <= maxRank satisfies
    rate*p_r >= probT_r >= fMin(maxRank) = cIndKey / (cSUnstr - cSIndx),
    so each indexed key's expected per-round query saving covers its
    indexing cost; summing gives partial <= noIndex exactly.

    The first link needs Bernoulli's inequality,
    probT = 1 - (1 - p)^rate <= rate * p, which holds only for
    rate >= 1 — for a *fractional* network-wide query rate it reverses,
    the probT rule slightly over-indexes, and partial can lose to noIndex
    by a few percent (hypothesis found rate ~= 0.05 counterexamples). The
    paper's evaluation always has rate >> 1 (20,000 peers), so the
    theorem is asserted in that regime.
    """
    assume(params.replication <= params.num_peers)
    assume(params.network_query_rate >= 1.0)
    costs = evaluate_strategies(params)
    slack = 1e-9 * max(costs.no_index, 1.0)
    assert costs.partial <= costs.no_index + slack


paper_regime_st = st.builds(
    ScenarioParameters,
    num_peers=st.integers(min_value=1_000, max_value=50_000),
    n_keys=st.integers(min_value=1_000, max_value=50_000),
    storage_per_peer=st.integers(min_value=10, max_value=500),
    replication=st.integers(min_value=2, max_value=100),
    alpha=st.floats(min_value=0.8, max_value=2.0),
    query_freq=st.just(1.0),  # placeholder, rescaled inside the test
    update_freq=st.floats(min_value=0.0, max_value=1e-3),
    env=st.floats(min_value=1e-3, max_value=0.3),
    dup=st.floats(min_value=1.0, max_value=4.0),
    dup2=st.floats(min_value=1.0, max_value=4.0),
)


@given(
    params=paper_regime_st,
    rate_factor=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_ideal_partial_near_index_all(params, rate_factor):
    """Eq. 13 <= ~Eq. 11 in the paper's operating regime: NOT a theorem.

    The paper's maxRank rule is a marginal-cost heuristic; two effects let
    it land above indexAll in corners: probT caps at 1 (under-indexing at
    per-key rates above 1/round) and tiny indexes lose the economies of
    scale baked into numActivePeers (a 1-key index still needs 2 peers,
    making cIndKey/key huge). Both effects vanish in the regime the paper
    evaluates — thousands of keys and at least ~one query per round
    network-wide — and additionally need the measurement-backed constants:
    env near the measured ~1/14 [MaCa03] and Zipf alpha near the measured
    1.2 [Srip01] (hypothesis violates the band at env = 1.0 with
    alpha = 0.5, i.e. probing 14x the measured rate over a near-uniform
    workload). We assert the 10% band only in that region; the
    exact-optimal comparison lives in tests/analysis/test_optimal.py.
    """
    assume(params.replication <= params.num_peers)
    # The precise validity condition of the marginal rule: probT must not
    # saturate, i.e. even the hottest key sees at most ~one query per
    # round (rate * p_1 <= 1). Above that, Eq. 4's probability cap makes
    # the rule blind to multi-query-per-round savings and it under-indexes
    # by design — the exact condition every counterexample hypothesis
    # found violates. We construct the query rate to respect it.
    from dataclasses import replace

    from repro.analysis.zipf import rank_probabilities

    top = float(rank_probabilities(params.n_keys, params.alpha)[0])
    rate = rate_factor / top  # network-wide queries per round
    params = replace(params, query_freq=rate / params.num_peers)
    # Second validity condition: numActivePeers must not saturate at
    # num_peers for the full index. When it does, every peer stores more
    # than `stor` keys and the per-key maintenance share drops — an
    # economy of scale the marginal fMin rule cannot anticipate, letting
    # indexAll undercut the heuristic's partial index.
    assume(
        params.n_keys * params.replication
        <= params.num_peers * params.storage_per_peer
    )
    costs = evaluate_strategies(params)
    assert costs.partial <= costs.index_all * 1.10 + 1e-9


@given(params=params_st)
@settings(max_examples=40, deadline=None)
def test_all_costs_non_negative(params):
    assume(params.replication <= params.num_peers)
    costs = evaluate_strategies(params)
    assert costs.index_all >= 0
    assert costs.no_index >= 0
    assert costs.partial >= 0


@given(params=params_st, ttl=st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=40, deadline=None)
def test_selection_model_bounds(params, ttl):
    assume(params.replication <= params.num_peers)
    model = SelectionModel(params, key_ttl=ttl)
    assert 0.0 <= model.p_indexed <= 1.0 + 1e-9  # float summation noise
    assert 0.0 <= model.index_size <= params.n_keys + 1e-9
    assert model.total_cost() >= 0.0
