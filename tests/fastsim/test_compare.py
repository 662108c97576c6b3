"""Tests for cost calibration and the cross-engine comparison harness."""

from __future__ import annotations

import pytest

from benchmarks.agreement import EngineAgreement, compare_engines
from repro.errors import ParameterError
from repro.fastsim.compare import calibrate_costs


@pytest.fixture(scope="module")
def tiny_params():
    # Small but structurally faithful: replica groups, pgrid, Zipf head.
    from repro.analysis.parameters import ScenarioParameters

    return ScenarioParameters(
        num_peers=120,
        n_keys=240,
        storage_per_peer=100,
        replication=10,
        alpha=1.2,
        query_freq=1.0 / 30.0,
    )


class TestCalibration:
    def test_calibrated_costs_are_positive_and_tagged(self, tiny_params):
        costs = calibrate_costs(
            tiny_params, lookup_probes=32, flood_probes=8, walk_probes=16
        )
        assert costs.source == "calibrated"
        assert costs.lookup >= 0
        assert costs.flood > 0
        assert costs.walk > 0
        assert costs.maintenance_per_round > 0
        assert costs.num_active_peers >= 2

    def test_calibrated_near_analytical_shape(self, tiny_params):
        from repro.fastsim.kernel import PerOpCosts

        measured = calibrate_costs(
            tiny_params, lookup_probes=64, flood_probes=16, walk_probes=32
        )
        analytic = PerOpCosts.analytical(
            tiny_params, num_active_peers=measured.num_active_peers
        )
        # Same order of magnitude — the whole point of Eq. 6-8/16.
        assert measured.walk == pytest.approx(analytic.walk, rel=1.0)
        assert measured.flood == pytest.approx(analytic.flood, rel=1.0)

    def test_probe_counts_validated(self, tiny_params):
        with pytest.raises(ParameterError):
            calibrate_costs(tiny_params, lookup_probes=0)

    def test_costs_policy_calibrates_small_analytical_large(self, tiny_params):
        from repro.experiments.scenario import fastsim_scenario
        from repro.fastsim.compare import costs_for
        from repro.pdht.config import PdhtConfig

        small = costs_for(
            tiny_params, PdhtConfig.from_scenario(tiny_params), 8
        )
        assert small.source == "calibrated"
        # Cached: the same key returns the same object, no re-measuring.
        assert (
            costs_for(tiny_params, PdhtConfig.from_scenario(tiny_params), 8)
            is small
        )
        large_params = fastsim_scenario()
        large = costs_for(
            large_params, PdhtConfig.from_scenario(large_params), 1000
        )
        assert large.source == "analytical"


class TestAgreementHarness:
    def test_relative_diffs_and_agrees(self):
        from repro.analysis.parameters import ScenarioParameters

        agreement = EngineAgreement(
            params=ScenarioParameters(),
            duration=10.0,
            seeds=(0,),
            event_hit_rates=[0.8],
            fast_hit_rates=[0.82],
            event_costs=[1000.0],
            fast_costs=[980.0],
            event_seconds=10.0,
            fast_seconds=0.1,
        )
        assert agreement.hit_rate_rel_diff == pytest.approx(0.025)
        assert agreement.cost_rel_diff == pytest.approx(0.02)
        assert agreement.speedup == pytest.approx(100.0)
        assert agreement.agrees(tolerance=0.05)
        assert not agreement.agrees(tolerance=0.01)
        assert "speedup" in agreement.summary()

    def test_empty_seeds_rejected(self, tiny_params):
        with pytest.raises(ParameterError):
            compare_engines(tiny_params, seeds=())

    def test_compare_engines_smoke(self, tiny_params):
        agreement = compare_engines(
            tiny_params,
            duration=60.0,
            seeds=(0,),
            costs=calibrate_costs(
                tiny_params, lookup_probes=64, flood_probes=16, walk_probes=32
            ),
        )
        assert len(agreement.event_hit_rates) == 1
        assert len(agreement.fast_hit_rates) == 1
        # Which engine is faster on 60 tiny rounds depends on what ran
        # before (a cold kernel loses); speed is the benchmark's claim.
        assert agreement.fast_seconds > 0 and agreement.event_seconds > 0
        assert agreement.speedup == agreement.event_seconds / agreement.fast_seconds


class TestChurnCalibrationSeed:
    """The base per-op costs a comparison charges by default are the
    seed-0 calibration."""

    def test_default_matches_seed_zero(self, tiny_params):
        # The default stays the historical seed-0 substrate.
        from repro.pdht.config import PdhtConfig

        config = PdhtConfig.from_scenario(tiny_params)
        assert calibrate_costs(tiny_params, config, seed=0) == calibrate_costs(
            tiny_params, config
        )


# ----------------------------------------------------------------------
# The harness runs the figures' own cells. These pairs are the runs it
# built by hand before it did (a ``queries-model`` substrate stream on
# the event side, a ``SeedSequence([seed, 0x3037DE1])`` stream and
# per-seed churn costs on the kernel side, a refreshing strategy next to
# a refreshing kernel run), so every list must come out equal, not close.
# ----------------------------------------------------------------------
ORACLE_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def oracle_scenario():
    from dataclasses import replace

    from repro.experiments.scenario import simulation_scenario
    from repro.pdht.config import PdhtConfig

    params = simulation_scenario(scale=0.01, query_freq=1 / 5)
    config = replace(PdhtConfig.from_scenario(params), walk_ttl=96)
    return params, config, calibrate_costs(params, config)


def _hand_built(params, config, duration, costs, model=None, availability=1.0):
    """``(event hit rates, fast hit rates, event costs, fast costs)``."""
    import numpy as np

    from repro.analysis.zipf import ZipfDistribution
    from repro.fastsim import run_fastsim
    from repro.fastsim.compare import (
        churn_config_for_availability,
        churn_costs_for,
    )
    from repro.pdht.strategies import SimulatedStrategy
    from repro.sim.rng import RandomStreams

    zipf = ZipfDistribution(params.n_keys, params.alpha)
    churn = churn_config_for_availability(availability)
    lists = ([], [], [], [])
    for seed in ORACLE_SEEDS:
        event_workload = workload = None
        if model is not None:
            event_workload = model.build(
                zipf, RandomStreams(seed).get("queries-model")
            )
            workload = model.build(
                zipf,
                np.random.default_rng(np.random.SeedSequence([seed, 0x3037DE1])),
            )
        strategy = SimulatedStrategy(
            params, config=config, seed=seed, churn=churn,
            workload=event_workload,
        )
        churn_costs = None
        if churn is not None:
            churn_costs = churn_costs_for(
                params, config, costs.num_active_peers, churn, costs,
                seed=seed,
                model=None if model is None else model.calibration_model,
            )
        event = strategy.run(duration)
        fast = run_fastsim(
            params, config=config, duration=duration, seed=seed,
            workload=workload, churn=churn, costs=costs,
            churn_costs=churn_costs,
        )
        for values, value in zip(lists, (
            event.hit_rate, fast.hit_rate,
            event.total_messages, fast.total_messages,
        )):
            values.append(value)
    return lists


class TestCellsMatchHandBuiltRuns:
    @pytest.mark.parametrize("model_name, availability, duration", [
        (None, 1.0, 60.0),
        ("rank-swap", 1.0, 60.0),
        (None, 0.7, 40.0),
        ("gradual-drift", 0.6, 40.0),
    ])
    def test_compare_engines(
        self, oracle_scenario, model_name, availability, duration
    ):
        from repro.workloads import model_from_name

        params, config, costs = oracle_scenario
        model = None
        if model_name is not None:
            model = model_from_name(model_name, duration)
        agreement = compare_engines(
            params, config=config, duration=duration, seeds=ORACLE_SEEDS,
            costs=costs, model=model, availability=availability,
        )
        assert (
            agreement.event_hit_rates,
            agreement.fast_hit_rates,
            agreement.event_costs,
            agreement.fast_costs,
        ) == _hand_built(params, config, duration, costs, model, availability)
        assert agreement.event_staleness == agreement.fast_staleness == []
        assert agreement.availability == (
            None if availability == 1.0 else availability
        )

    def test_compare_engines_staleness(self, oracle_scenario):
        from benchmarks.agreement import compare_engines_staleness
        from repro.fastsim import run_fastsim
        from repro.pdht.strategies import SimulatedStrategy

        params, config, _ = oracle_scenario
        agreement = compare_engines_staleness(
            params, config=config, duration=60.0, refresh_period=20.0,
            seeds=ORACLE_SEEDS, ttl_factor=2.0,
        )
        config = config.with_ttl(config.key_ttl * 2.0)
        event = [
            SimulatedStrategy(
                params, config=config, seed=seed, content_refresh_period=20.0
            ).run(60.0)
            for seed in ORACLE_SEEDS
        ]
        fast = [
            run_fastsim(
                params, config=config, duration=60.0, seed=seed,
                content_refresh_period=20.0,
            )
            for seed in ORACLE_SEEDS
        ]
        assert agreement.event_staleness == [
            report.stale_hit_fraction for report in event
        ]
        assert agreement.event_hit_rates == [report.hit_rate for report in event]
        assert agreement.fast_staleness == [
            report.stale_hit_fraction for report in fast
        ]
        assert agreement.fast_hit_rates == [report.hit_rate for report in fast]
        assert agreement.event_costs == agreement.fast_costs == []
        assert agreement.availability is None
