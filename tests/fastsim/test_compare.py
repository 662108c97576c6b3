"""Tests for cost calibration and the cross-engine comparison harness."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.fastsim.compare import EngineAgreement, calibrate_costs, compare_engines


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
    """ISSUE 4 satellite: compare_engines_churn exposes calibration_seed
    like compare_engines, threading it into the base per-op costs that
    churn_costs_for anchors to."""

    def test_calibration_seed_equals_explicit_costs(self, tiny_params):
        from repro.fastsim.compare import compare_engines_churn
        from repro.pdht.config import PdhtConfig

        config = PdhtConfig.from_scenario(tiny_params)
        via_seed = compare_engines_churn(
            tiny_params,
            0.7,
            config=config,
            duration=30.0,
            seeds=(0,),
            calibration_seed=5,
        )
        via_costs = compare_engines_churn(
            tiny_params,
            0.7,
            config=config,
            duration=30.0,
            seeds=(0,),
            costs=calibrate_costs(tiny_params, config, seed=5),
        )
        assert via_seed.fast_hit_rates == via_costs.fast_hit_rates
        assert via_seed.fast_costs == via_costs.fast_costs

    def test_default_matches_seed_zero(self, tiny_params):
        # The default stays the historical seed-0 substrate.
        from repro.pdht.config import PdhtConfig

        config = PdhtConfig.from_scenario(tiny_params)
        assert calibrate_costs(tiny_params, config, seed=0) == calibrate_costs(
            tiny_params, config
        )
