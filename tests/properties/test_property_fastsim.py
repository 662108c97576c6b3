"""Cross-engine agreement: the vectorized kernel vs the event engine.

The fastsim kernel is a parallel implementation of the paper's Section 5
simulation semantics. Its licence to exist is agreement with the
discrete-event engine where both can run: on a small paper scenario the
seed-averaged aggregate hit rate and total message cost must land within
5% of the event engine across >= 3 seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.agreement import compare_engines, compare_engines_staleness
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import calibrate_costs, run_fastsim
from repro.pdht.config import PdhtConfig

#: Table 1 / 50: 400 peers, 800 keys — structurally faithful, fast enough
#: for the tier-1 suite.
SCALE = 0.02
DURATION = 150.0
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def agreement():
    params = simulation_scenario(scale=SCALE)
    return compare_engines(params, duration=DURATION, seeds=SEEDS)


def test_hit_rate_within_five_percent(agreement):
    assert agreement.hit_rate_rel_diff <= 0.05, agreement.summary()


def test_total_cost_within_five_percent(agreement):
    assert agreement.cost_rel_diff <= 0.05, agreement.summary()


def test_vectorized_engine_is_faster(agreement):
    # The speed claim at tier-1 scale is modest (the 10k-peer scenario
    # reads ~500x).
    assert agreement.speedup > 1.0, agreement.summary()


def test_per_category_costs_track_event_engine():
    """Maintenance and membership must agree tightly (both are
    deterministic given the substrate), search categories statistically."""
    from repro.pdht.strategies import SimulatedStrategy
    from repro.sim.metrics import MessageCategory

    params = simulation_scenario(scale=SCALE)
    config = PdhtConfig.from_scenario(params)
    costs = calibrate_costs(params, config)
    event = SimulatedStrategy(params, config=config, seed=0).run(
        DURATION
    )
    fast = run_fastsim(
        params, config=config, duration=DURATION, seed=0, costs=costs
    )
    event_maintenance = event.messages_by_category[MessageCategory.MAINTENANCE]
    fast_maintenance = fast.messages_by_category[MessageCategory.MAINTENANCE]
    assert fast_maintenance == pytest.approx(event_maintenance, rel=0.01)
    event_membership = event.messages_by_category[MessageCategory.MEMBERSHIP]
    fast_membership = fast.messages_by_category[MessageCategory.MEMBERSHIP]
    assert fast_membership == pytest.approx(event_membership, rel=0.15)


def test_windowed_hit_rate_series_track_each_other():
    """Not just the aggregate: the *trajectory* (index warm-up) matches."""
    from repro.pdht.strategies import SimulatedStrategy

    params = simulation_scenario(scale=SCALE)
    config = PdhtConfig.from_scenario(params)
    event = SimulatedStrategy(params, config=config, seed=1).run(
        DURATION, window=50.0
    )
    fast = run_fastsim(
        params, config=config, duration=DURATION, seed=1, window=50.0
    )
    event_rates = np.array([r for _, r in event.hit_rate_series])
    fast_rates = np.array([r for _, r in fast.hit_rate_series])
    assert event_rates.shape == fast_rates.shape
    assert np.abs(event_rates - fast_rates).max() < 0.10


# ----------------------------------------------------------------------
# Churn: the lifted engine gate's acceptance bar (ISSUE 3).
#
# The kernel's availability-dependent per-op model (calibrated per seed
# off the same churned substrate + churn trajectory the event engine
# runs) must land within 5% of the event engine on seed-averaged hit
# rate AND total cost across availabilities 0.5-0.9. walk_ttl is bounded
# so the event engine's exhausted walks stay affordable inside tier-1;
# the default-TTL exhaustion regime is pinned by the regression test
# below.
# ----------------------------------------------------------------------
CHURN_DURATION = 300.0
CHURN_WALK_TTL = 96


def _churn_agreement(availability: float):
    from dataclasses import replace

    params = simulation_scenario(scale=SCALE)
    config = replace(
        PdhtConfig.from_scenario(params), walk_ttl=CHURN_WALK_TTL
    )
    return compare_engines(
        params,
        config=config,
        duration=CHURN_DURATION,
        seeds=SEEDS,
        availability=availability,
    )


@pytest.mark.parametrize("availability", (0.9, 0.5))
def test_churn_agreement_within_five_percent(availability):
    agreement = _churn_agreement(availability)
    assert agreement.hit_rate_rel_diff <= 0.05, agreement.summary()
    assert agreement.cost_rel_diff <= 0.05, agreement.summary()


#: Per-strategy total-cost bounds for the non-selection churn paths.
#: noIndex and partialIdeal tightened from PR 3's uniform 0.12 (they sit
#: at ~0.01 / ~0.06 off). indexAll tightened from 0.15 to 0.10 (ISSUE 5
#: satellite): the member rescale now uses *measured* lookups (churned
#: substrate probes at both DHT sizes) and re-anchors maintenance to the
#: measured no-churn rate at the target size, instead of the analytic
#: c_search_index / n·log2(n) ratios that ran ~12% under the event
#: engine at availability 0.5 — it now sits at ~0.01.
CHURN_STRATEGY_COST_REL = {
    "noIndex": 0.05,
    "indexAll": 0.10,
    "partialIdeal": 0.10,
}


def test_other_strategies_track_event_engine_under_churn():
    """The lifted dispatch gate covered *every* figure, so the
    non-selection strategies' churn paths (noIndex walk charging,
    indexAll's preloaded no-flood hits, partialIdeal's split path) need
    their own cross-engine bound — looser than the selection-path 5%
    (they are not the acceptance bar) but tight enough to catch a broken
    charge outright."""
    from dataclasses import replace

    from repro.fastsim import calibrate_costs
    from repro.fastsim.compare import churn_config_for_availability
    from repro.pdht.strategies import SimulatedStrategy

    params = simulation_scenario(scale=SCALE)
    config = replace(PdhtConfig.from_scenario(params), walk_ttl=CHURN_WALK_TTL)
    costs = calibrate_costs(params, config)
    churn = churn_config_for_availability(0.5)
    for name in ("noIndex", "indexAll", "partialIdeal"):
        event_cost = fast_cost = event_hit = fast_hit = 0.0
        for seed in (0, 1):
            event = SimulatedStrategy(
                params, config=config, strategy=name, seed=seed, churn=churn
            ).run(240.0)
            fast = run_fastsim(
                params,
                config=config,
                duration=240.0,
                seed=seed,
                strategy=name,
                churn=churn,
                costs=costs,
            )
            event_cost += event.total_messages
            fast_cost += fast.total_messages
            event_hit += event.hit_rate
            fast_hit += fast.hit_rate
        assert fast_cost == pytest.approx(
            event_cost, rel=CHURN_STRATEGY_COST_REL[name]
        ), name
        assert fast_hit / 2 == pytest.approx(event_hit / 2, abs=0.05), name


def test_update_traffic_tracks_event_engine_under_churn():
    """The `_step_updates` churn fix (ISSUE 4): proactive updates charge
    churn-aware costs, not the no-churn lookup/flood.

    At availability 0.9 with the update frequency raised until update
    traffic dominates, the REPLICA_FLOOD category is *pure* update flood
    for indexAll and partialIdeal (their hit paths are preloaded and
    flood-free — the event engine records zero flood at update_freq 0),
    so comparing that category across engines pins the update charge
    directly. partialIdeal also exercises the undersized-group flood
    rescale: its threshold-sized DHT merges into one group far smaller
    than the replication factor, whose floods the old flat charge
    overestimated several-fold.
    """
    from dataclasses import replace

    from repro.analysis.threshold import solve_threshold
    from repro.fastsim import calibrate_costs
    from repro.fastsim.compare import churn_config_for_availability
    from repro.pdht.strategies import SimulatedStrategy
    from repro.sim.metrics import MessageCategory

    base = simulation_scenario(scale=SCALE)
    config = replace(PdhtConfig.from_scenario(base), walk_ttl=CHURN_WALK_TTL)
    churn = churn_config_for_availability(0.9)
    for name, update_freq in (("indexAll", 0.02), ("partialIdeal", 0.01)):
        params = replace(base, update_freq=update_freq)
        costs = calibrate_costs(params, config)
        event_flood = fast_flood = event_total = fast_total = 0.0
        for seed in (0, 1):
            event = SimulatedStrategy(
                params, config=config, strategy=name, seed=seed, churn=churn
            ).run(120.0)
            fast = run_fastsim(
                params,
                config=config,
                duration=120.0,
                seed=seed,
                strategy=name,
                churn=churn,
                costs=costs,
            )
            event_flood += event.messages_by_category.get(
                MessageCategory.REPLICA_FLOOD, 0.0
            )
            fast_flood += fast.messages_by_category.get(
                MessageCategory.REPLICA_FLOOD, 0.0
            )
            event_total += event.total_messages
            fast_total += fast.total_messages
        assert fast_flood == pytest.approx(event_flood, rel=0.20), name
        assert fast_total == pytest.approx(event_total, rel=0.10), name
        if name == "partialIdeal":
            # Pin the failure mode: the flat no-churn flood charge (what
            # the kernel used to pay per update) overestimates the
            # undersized group's flood several-fold.
            updates = int(
                solve_threshold(params).max_rank * update_freq * 120.0
            )
            flat_charge = costs.flood * updates
            assert flat_charge / event_flood > 3.0


def test_churn_underestimate_regression():
    """The ROADMAP's ~7x churn cost underestimate is gone.

    At availability 0.5 with the default (unbounded-ish) walk TTL, the
    event engine's broadcast walks lengthen and exhaust through the
    fragmented online overlay; the old kernel charged a flat per-walk
    cost and missed the unstructured-search bill by two orders of
    magnitude. The calibrated model must land within +-40% on that
    category (single seed) — and the flat charge must remain visibly,
    hugely wrong, so this pins both the fix and the failure mode.
    """
    from repro.fastsim import calibrate_churn_costs, calibrate_costs
    from repro.fastsim.compare import churn_config_for_availability
    from repro.pdht.strategies import SimulatedStrategy
    from repro.sim.metrics import MessageCategory

    params = simulation_scenario(scale=SCALE)
    config = PdhtConfig.from_scenario(params)  # default walk_ttl = 4096
    churn = churn_config_for_availability(0.5)
    costs = calibrate_costs(params, config)
    churn_costs = calibrate_churn_costs(
        params, churn, config, seed=0, rounds=120.0, walk_probes=120
    )

    event = SimulatedStrategy(
        params, config=config, seed=0, churn=churn
    ).run(180.0)
    fast = run_fastsim(
        params,
        config=config,
        duration=180.0,
        seed=0,
        churn=churn,
        costs=costs,
        churn_costs=churn_costs,
    )
    event_walks = event.messages_by_category[
        MessageCategory.UNSTRUCTURED_SEARCH
    ]
    fast_walks = fast.messages_by_category[
        MessageCategory.UNSTRUCTURED_SEARCH
    ]
    # The old model: one flat calibrated walk charge per miss, no
    # exhaustion. It underestimates by far more than the historical ~7x.
    flat_charge = costs.walk * (event.queries - event.index_hits)
    assert event_walks / flat_charge > 7.0
    assert 0.6 <= fast_walks / event_walks <= 1.6
    assert 0.7 <= fast.total_messages / event.total_messages <= 1.4


# ----------------------------------------------------------------------
# Workload models (ISSUE 5): every repro.workloads model must agree
# across engines within the same 5% bar as the stationary stream — and
# GradualDrift must hold it *under churn* through the rank-permutation-
# aware calibration (the probe drives the model's own shifting mapping).
# ----------------------------------------------------------------------
MODEL_DURATION = 150.0


def _model_for(name: str):
    from repro.workloads import model_from_name

    return model_from_name(name, MODEL_DURATION)


@pytest.mark.parametrize(
    "model_name", ("rank-swap", "gradual-drift", "flash-crowd", "diurnal")
)
def test_workload_model_agreement_within_five_percent(model_name):
    params = simulation_scenario(scale=SCALE)
    agreement = compare_engines(
        params,
        duration=MODEL_DURATION,
        seeds=SEEDS,
        model=_model_for(model_name),
    )
    assert agreement.hit_rate_rel_diff <= 0.05, agreement.summary()
    assert agreement.cost_rel_diff <= 0.05, agreement.summary()


def test_trace_replay_hit_rates_equal_cost_within_five_percent():
    from repro.sim.rng import RandomStreams
    from repro.workloads import StationaryZipf, TraceReplay, record_trace

    params = simulation_scenario(scale=SCALE)
    from repro.analysis.zipf import ZipfDistribution

    zipf = ZipfDistribution(params.n_keys, params.alpha)
    trace = record_trace(
        StationaryZipf().build(zipf, RandomStreams(77).get("trace")),
        duration=MODEL_DURATION,
        queries_per_round=13,
    )
    agreement = compare_engines(
        params,
        duration=MODEL_DURATION,
        seeds=SEEDS,
        model=TraceReplay(trace),
    )
    # Both engines replay the identical recorded stream, so each seed's
    # hit rate is the same number on both, not merely close.
    assert agreement.event_hit_rates == agreement.fast_hit_rates, (
        agreement.summary()
    )
    assert agreement.cost_rel_diff <= 0.05, agreement.summary()


def test_gradual_drift_under_churn_agreement_within_five_percent():
    """The ROADMAP's rank-permutation calibration item: under churn with
    a drifting workload, the kernel's per-op costs are calibrated
    against the model's realized rank -> key mapping per segment (the
    probe drives the same model), and cross-engine agreement holds the
    stationary 5% bar at availability 0.5."""
    from dataclasses import replace

    from repro.workloads import model_from_name

    params = simulation_scenario(scale=SCALE)
    config = replace(
        PdhtConfig.from_scenario(params), walk_ttl=CHURN_WALK_TTL
    )
    agreement = compare_engines(
        params,
        config=config,
        duration=CHURN_DURATION,
        seeds=SEEDS,
        model=model_from_name("gradual-drift", CHURN_DURATION),
        availability=0.5,
    )
    assert agreement.hit_rate_rel_diff <= 0.05, agreement.summary()
    assert agreement.cost_rel_diff <= 0.05, agreement.summary()


# ----------------------------------------------------------------------
# Staleness: the other lifted gate. The kernel's content version and
# per-entry indexed versions must reproduce the event engine's stale-hit
# fraction.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ttl_factor", (0.25, 1.0))
def test_staleness_agreement_within_five_percent(ttl_factor):
    params = simulation_scenario(scale=SCALE)
    agreement = compare_engines_staleness(
        params,
        duration=200.0,
        refresh_period=80.0,
        seeds=(0, 1),
        ttl_factor=ttl_factor,
    )
    assert agreement.staleness_rel_diff <= 0.05, agreement.summary()
    assert agreement.hit_rate_rel_diff <= 0.05, agreement.summary()
    assert agreement.agrees(tolerance=0.05), agreement.summary()
