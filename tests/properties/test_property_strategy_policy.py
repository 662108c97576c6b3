"""Declarative check: both engines and the closed form run the one
:class:`~repro.analysis.strategies.StrategyPolicy` of each strategy.

For every strategy and generated small scenario, three implementations
must state the same facts as the policy:

* the event substrate (:class:`~repro.pdht.strategies.SimulatedStrategy`
  after ``prepare()``): DHT members, the TTL its indexes insert with, the
  keys found in the replica groups' indexes, whether maintenance was
  cancelled, and
  which ranks query the index / hit it at once;
* the kernel (:class:`~repro.fastsim.kernel.FastSimKernel` before its
  first round): DHT members, ``key_ttl``, the reported index size,
  proactive updates per round, and the preloaded hits of one batch;
* the closed form (Eq. 11-13): ``maxRank`` of ``solve_threshold`` for
  partialIdeal, every key for indexAll, none for noIndex, and the DHT
  sizes the cost model assumes.

Mutations of ``src/`` this module was run against, each caught:

* ``<`` for ``<=`` in ``SimulatedStrategy._handle`` or in the kernel's
  static branch;
* an off-by-one DHT size in the event engine or the kernel;
* ``prepare()`` no longer cancelling maintenance;
* ``SimulatedStrategy`` passing no DHT size, so ``PdhtNetwork`` sizes every
  strategy's DHT like a selection DHT from the adjusted (infinite) TTL.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.costs import CostModel
from repro.analysis.strategies import STRATEGY_NAMES, strategy_setup
from repro.analysis.threshold import solve_threshold
from repro.errors import ParameterError
from repro.experiments.scenario import simulation_scenario
from repro.fastsim.kernel import FastSimKernel, PerOpCosts
from repro.fastsim.metrics import FastSimReport
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy, StrategyReport, key_name
from repro.sim.metrics import MessageCategory

#: Unit charges, so the kernel never calibrates a substrate of its own.
COSTS = PerOpCosts(
    lookup=1.0, flood=1.0, walk=1.0, gateway_discovery=2.0,
    maintenance_per_round=1.0, num_active_peers=2,
)

scenarios = st.builds(
    lambda scale, alpha, exponent, update_freq: dataclasses.replace(
        simulation_scenario(scale=scale, query_freq=10.0**-exponent),
        alpha=alpha, update_freq=update_freq,
    ),
    scale=st.sampled_from([0.005, 0.01, 0.02]),
    alpha=st.floats(0.6, 1.6),
    # A query per 0.3 s to per 10^6 s: from "index (nearly) everything"
    # to "indexing never pays" (maxRank 0).
    exponent=st.floats(-0.5, 6.0),
    update_freq=st.sampled_from([0.0, 1 / 86400, 1 / 3600, 1 / 60]),
)
key_ttls = st.one_of(st.just(0.0), st.floats(0.5, 1e5))


def _probe_ranks(n_keys: int, *boundaries: int) -> list[int]:
    """The first and last rank and either side of each boundary."""
    ranks = {1, n_keys}
    for boundary in boundaries:
        ranks.update((boundary, boundary + 1))
    return sorted(r for r in ranks if 1 <= r <= n_keys)


def _event_facts(params, config, name, ranks):
    strategy = SimulatedStrategy(params, config=config, strategy=name, seed=1)
    network = strategy.network
    stored = set()
    for index in network.indexes:
        stored.update(index.latest)
        stored.update(index.own)
    report = StrategyReport(strategy=name, params=params, duration=1.0)
    routed = []
    for rank in ranks:
        # An index query is a hit, a cold miss or a reinsertion.
        asked = report.index_hits + report.cold_misses + report.reinsertions
        hits = report.index_hits
        strategy._answer_round(
            report,
            network.population.sorted_online_ids(),
            [(rank, strategy.workload.key_for_rank(rank))],
        )
        routed.append((
            report.index_hits + report.cold_misses + report.reinsertions
            > asked,
            report.index_hits > hits,
        ))
    return strategy, stored, routed


def _kernel_facts(params, config, name, ranks):
    kernel = FastSimKernel(params, config=config, strategy=name, costs=COSTS)
    (lane,) = kernel.lanes
    size_at_start = kernel._reported_index_size(lane, kernel.now)
    totals = {category: 0.0 for category in MessageCategory}
    kernel._step_updates(lane, totals)
    updates = totals[MessageCategory.INDEX_SEARCH] + lane.update_debt
    report = FastSimReport(strategy=name, params=params, duration=1.0)
    batch = np.asarray(ranks)
    kernel._step_span(1.0, np.array([batch.size]), batch, batch - 1, [report])
    return kernel, size_at_start, updates, report.index_hits


@settings(max_examples=20, deadline=None)
@given(params=scenarios, key_ttl=key_ttls)
def test_both_engines_and_the_closed_form_run_the_policy(params, key_ttl):
    config = PdhtConfig.from_scenario(params, key_ttl=key_ttl)
    n_keys = params.n_keys
    threshold = solve_threshold(params)
    # (indexed and preloaded ranks, DHT members) as Eq. 11-13 assume them
    closed_form = {
        "noIndex": (0, 2),
        "indexAll": (n_keys, CostModel.full_index(params).num_active_peers),
        "partialIdeal": (
            threshold.max_rank, max(2, threshold.num_active_peers)
        ),
    }
    for name in STRATEGY_NAMES:
        policy = strategy_setup(params, config, name)
        if name in closed_form:
            ranks, members = closed_form[name]
            assert policy.index_ranks == policy.preloaded_ranks == ranks
            assert policy.num_members == members
        else:
            assert policy.preloaded_ranks == 0
        ranks = _probe_ranks(
            n_keys, policy.index_ranks, policy.preloaded_ranks
        )
        preloaded = [r <= policy.preloaded_ranks for r in ranks]

        strategy, stored, routed = _event_facts(params, config, name, ranks)
        assert strategy.network.dht.size == policy.num_members, name
        assert strategy.config.key_ttl == policy.key_ttl, name
        assert stored == {
            key_name(strategy.workload.key_for_rank(r))
            for r in range(1, policy.preloaded_ranks + 1)
        }, name
        assert (
            strategy.network.simulation.round_hook is None
        ) == (not policy.runs_dht), name
        assert routed == [
            (r <= policy.index_ranks, hit) for r, hit in zip(ranks, preloaded)
        ], name

        kernel, size, updates, hits = _kernel_facts(params, config, name, ranks)
        (lane,) = kernel.lanes
        assert lane.membership.num_members == policy.num_members, name
        assert lane.key_ttl == policy.key_ttl, name
        assert size == policy.preloaded_ranks, name
        assert updates == pytest.approx(
            policy.updates_per_round(params.update_freq), abs=1e-9
        ), name
        assert hits == sum(preloaded), name


def test_unknown_strategy_is_rejected_by_both_engines(small_params):
    with pytest.raises(ParameterError, match="unknown strategy"):
        SimulatedStrategy(small_params, strategy="bogus")
    with pytest.raises(ParameterError, match="unknown strategy"):
        FastSimKernel(small_params, strategy="bogus", costs=COSTS)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 3(b)")
def test_partial_ideal_updates_keep_the_index_at_max_rank():
    """Proactive updates refresh only what is indexed, so the event
    engine's partialIdeal index never grows past ``maxRank``. Today they
    re-insert any key (17 distinct keys against ``maxRank`` 16 here)."""
    base = simulation_scenario(scale=0.01)
    params = dataclasses.replace(base, update_freq=base.update_freq * 200)
    strategy = SimulatedStrategy(params, strategy="partialIdeal", seed=3)
    strategy.run(40.0)
    max_rank = solve_threshold(params).max_rank
    assert strategy.network.distinct_indexed_keys() <= max_rank
