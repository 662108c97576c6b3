"""Tests for the availability-dependent churn cost model."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments.scenario import paper_scenario, simulation_scenario
from repro.fastsim import FastSimKernel, PerOpCosts
from repro.fastsim.churncosts import (
    ChurnOpCosts,
    structural_flood_cost,
    structural_walk_costs,
)
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.state import FastSimState
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig


class TestStructuralWalkCosts:
    def test_full_availability_always_resolves(self, rng):
        estimate = structural_walk_costs(
            400, 50, 4, 8, 4096, 1.0, rng, probes=48
        )
        assert estimate.failure_probability == 0.0
        # cSUnstr scale: ~numPeers/repl distinct visits plus duplication.
        assert 2.0 < estimate.resolved_walk < 80.0

    def test_low_availability_fragments_the_overlay(self, rng):
        healthy = structural_walk_costs(
            400, 50, 4, 8, 512, 0.95, rng, probes=96
        )
        churned = structural_walk_costs(
            400, 50, 4, 8, 512, 0.5, rng, probes=192, mask_groups=16
        )
        # Near percolation, searches start failing and the exhausted
        # walks cost orders of magnitude more than resolved ones.
        assert churned.failure_probability > healthy.failure_probability
        assert churned.failure_probability > 0.02
        assert churned.failed_walk > 5 * churned.resolved_walk

    def test_validation(self, rng):
        with pytest.raises(ParameterError):
            structural_walk_costs(400, 50, 4, 8, 512, 0.0, rng)
        with pytest.raises(ParameterError):
            structural_walk_costs(400, 50, 4, 8, 512, 0.5, rng, probes=0)


class TestStructuralFloodCost:
    def test_offline_members_shrink_the_flood(self, rng):
        full = structural_flood_cost(50, 3, 1.0, rng, probes=16)
        half = structural_flood_cost(50, 3, 0.5, rng, probes=64)
        assert 0.0 < half < full
        # Full flood of a degree-3 group traverses ~1.5 edges per member
        # in both directions minus the entry edge: repl * dup2 territory.
        assert 50.0 < full < 160.0

    def test_degenerate_groups(self, rng):
        assert structural_flood_cost(1, 3, 0.5, rng) == 0.0
        with pytest.raises(ParameterError):
            structural_flood_cost(0, 3, 0.5, rng)
        with pytest.raises(ParameterError):
            structural_flood_cost(50, 3, 1.5, rng)


class TestChurnOpCosts:
    def _costs(self, **overrides):
        fields = dict(
            availability=0.8,
            lookup=3.0,
            miss_lookup=2.0,
            hit_flood=60.0,
            miss_flood=60.0,
            insert_flood=60.0,
            resolved_walk=20.0,
            failed_walk=800.0,
            walk_failure=0.1,
            hit_flood_fraction=0.05,
            turnover_miss=0.01,
            maintenance_per_round=50.0,
            num_active_peers=98,
        )
        fields.update(overrides)
        return ChurnOpCosts(**fields)

    def test_validation(self):
        assert self._costs().source == "structural"
        with pytest.raises(ParameterError):
            self._costs(availability=0.0)
        with pytest.raises(ParameterError):
            self._costs(walk_failure=1.5)
        with pytest.raises(ParameterError):
            self._costs(resolved_walk=-1.0)

    def test_structural_anchors_to_base_costs_near_full_availability(self):
        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        costs = ChurnOpCosts.structural(
            params,
            config,
            num_active_peers=98,
            availability=0.9999,
            base_walk=15.0,
            base_flood=99.0,
            base_maintenance=79.0,
        )
        # The MC estimates are normalised by an availability-1 probe, so
        # near full availability they reproduce the anchors.
        assert costs.resolved_walk == pytest.approx(15.0, rel=0.35)
        assert costs.hit_flood == pytest.approx(99.0, rel=0.15)
        assert costs.maintenance_per_round == pytest.approx(79.0, rel=0.05)
        assert costs.walk_failure <= 0.02
        assert costs.source == "structural"

    def test_structural_costs_amplify_walks_at_low_availability(self):
        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        churned = ChurnOpCosts.structural(
            params, config, 98, 0.5, 15.0, 99.0, 79.0
        )
        assert churned.resolved_walk > 15.0
        assert churned.failed_walk > 10 * churned.resolved_walk
        assert churned.miss_flood < 99.0
        assert 0.0 < churned.turnover_miss < 0.1
        assert 0.0 < churned.hit_flood_fraction < 0.2


class TestCalibratedChurnCosts:
    @pytest.fixture(scope="class")
    def calibrated(self):
        from repro.fastsim.compare import calibrate_churn_costs

        params = simulation_scenario(scale=0.02)
        config = replace(PdhtConfig.from_scenario(params), walk_ttl=96)
        churn = ChurnConfig(mean_session=1800.0, mean_offline=600.0)  # a=0.75
        return calibrate_churn_costs(
            params, churn, config, seed=0, rounds=120.0, walk_probes=150
        )

    def test_measured_fields_are_sane(self, calibrated):
        assert calibrated.source == "calibrated"
        assert calibrated.availability == pytest.approx(0.75)
        assert calibrated.lookup > 0
        assert calibrated.miss_lookup > 0
        assert 0 < calibrated.miss_flood < 100
        assert calibrated.resolved_walk > 0
        assert 0.0 <= calibrated.walk_failure < 0.5
        assert 0.0 <= calibrated.hit_flood_fraction < 0.6
        assert 0.0 <= calibrated.turnover_miss < 0.2
        assert calibrated.maintenance_per_round > 0


class TestChurnCostsPolicy:
    def test_structural_beyond_calibration_limit(self):
        from repro.fastsim import PerOpCosts
        from repro.fastsim.compare import churn_costs_for

        params = paper_scenario()  # 20,000 peers > CALIBRATION_LIMIT
        config = PdhtConfig.from_scenario(params)
        base = PerOpCosts.analytical(params, config)
        costs = churn_costs_for(
            params,
            config,
            base.num_active_peers,
            ChurnConfig(mean_session=1800.0, mean_offline=1800.0),
            base,
        )
        assert costs.source == "structural"
        assert costs.availability == pytest.approx(0.5)

    def test_member_rescaling_adjusts_lookup_and_maintenance(self):
        from repro.fastsim.compare import _rescale_members

        params = simulation_scenario(scale=0.02)  # 400 peers
        config = PdhtConfig.from_scenario(params)

        base = ChurnOpCosts(
            availability=0.8,
            lookup=3.0,
            miss_lookup=2.5,
            hit_flood=60.0,
            miss_flood=60.0,
            insert_flood=60.0,
            resolved_walk=20.0,
            failed_walk=800.0,
            walk_failure=0.1,
            hit_flood_fraction=0.05,
            turnover_miss=0.01,
            maintenance_per_round=50.0,
            num_active_peers=100,
        )
        bigger = _rescale_members(base, 400, config, params)
        assert bigger.num_active_peers == 400
        assert bigger.lookup > base.lookup
        assert bigger.maintenance_per_round > base.maintenance_per_round
        # Overlay-level costs carry over unchanged.
        assert bigger.resolved_walk == base.resolved_walk
        assert bigger.miss_flood == base.miss_flood
        assert _rescale_members(base, 100, config, params) is base


class TestReplicaAvailabilityVector:
    @staticmethod
    def churned_state(params, num_peers, churn, inputs):
        state = FastSimState(replace(params, num_peers=num_peers))
        state.set_online(inputs.churn_start(num_peers, churn))
        return state

    def test_online_fraction_tracked_incrementally(self, small_params):
        config = ChurnConfig(mean_session=50.0, mean_offline=50.0)
        inputs = RoundInputs(12345)
        state = self.churned_state(small_params, 5_000, config, inputs)
        for _ in range(40):
            state.flip(inputs.churn_flips(state.online, config))
            assert state.online_fraction == pytest.approx(
                state.online.mean(), abs=1e-12
            )

    def test_replica_online_counts_follow_instantaneous_fraction(
        self, small_params
    ):
        config = ChurnConfig(mean_session=100.0, mean_offline=100.0)
        inputs = RoundInputs(12345)
        state = self.churned_state(small_params, 10_000, config, inputs)
        counts = inputs.replica_online(5_000, 50, state.online_fraction)
        assert counts.shape == (5_000,)
        assert counts.min() >= 0 and counts.max() <= 50
        assert counts.mean() == pytest.approx(
            50 * state.online_fraction, rel=0.05
        )
        assert inputs.replica_online(0, 50, state.online_fraction).size == 0

    def test_kernel_draws_replicas_at_the_instantaneous_fraction(
        self, small_params
    ):
        # Stationary availability 0.5, but only a tenth of the peers
        # online now: a key's 20 replicas are all offline with
        # probability 0.9 ** 20 (at 0.5 it would be ~1e-6).
        churn_costs = ChurnOpCosts(
            availability=0.5, lookup=3.0, miss_lookup=2.5, hit_flood=60.0,
            miss_flood=60.0, insert_flood=60.0, resolved_walk=20.0,
            failed_walk=800.0, walk_failure=0.1, hit_flood_fraction=0.05,
            turnover_miss=0.01, maintenance_per_round=50.0,
            num_active_peers=100,
        )
        kernel = FastSimKernel(
            small_params,
            churn=ChurnConfig(mean_session=100.0, mean_offline=100.0),
            costs=PerOpCosts.analytical(small_params),
            churn_costs=churn_costs,
        )
        peers = small_params.num_peers
        kernel.state.set_online(np.arange(peers) < peers // 10)
        _, p_resolve = kernel._resolve_draws(5_000)
        some_online = 1.0 - 0.9 ** small_params.replication
        assert p_resolve.mean() == pytest.approx(0.9 * some_online, abs=0.02)


class TestOverlaySample:
    def test_exact_degree_for_any_parity(self, rng):
        # Regression: the stub-pairing sampler corrupted the neighbour
        # table when num_peers * degree was odd (pad/truncate mismatch).
        from repro.fastsim.churncosts import _overlay_sample

        for num_peers, degree in ((101, 5), (100, 5), (101, 4), (400, 4)):
            table = _overlay_sample(num_peers, degree, rng)
            assert table.shape == (num_peers, degree)
            assert table.min() >= 0 and table.max() < num_peers
            # Matching construction: in-degree equals out-degree ~exactly.
            counts = np.bincount(table.ravel(), minlength=num_peers)
            assert counts.min() >= degree - 1
            assert counts.max() <= degree + 2
