"""Typed store round-trips (bit-exact) and active-store plumbing."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.kernel import PerOpCosts
from repro.net.churn import ChurnConfig
from repro.store import STORE_ENV, Store, active_store, using_store
from repro.store import serialize
from repro.store import store as store_module


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path / "artifacts.sqlite") as handle:
        yield handle


@pytest.fixture(autouse=True)
def _clean_active_store(monkeypatch):
    """No explicit active store: ``REPRO_STORE`` resolution, restored
    after the test."""
    monkeypatch.setattr(store_module, "_active", store_module._UNSET)


COSTS = PerOpCosts(
    lookup=3.25,
    flood=17.5,
    walk=211.75,
    gateway_discovery=2.0,
    maintenance_per_round=0.125,
    num_active_peers=321,
    source="calibrated",
)

CHURN_COSTS = ChurnOpCosts(
    availability=0.6,
    lookup=3.5,
    miss_lookup=4.25,
    hit_flood=12.5,
    miss_flood=11.75,
    insert_flood=10.5,
    resolved_walk=95.25,
    failed_walk=210.0,
    walk_failure=0.0625,
    hit_flood_fraction=0.25,
    turnover_miss=0.125,
    maintenance_per_round=0.5,
    num_active_peers=123,
    source="calibrated",
)


class TestCostRoundTrips:
    def test_costs_round_trip_bit_exact(self, store):
        inputs = {"seed": 0, "n": 1}
        store.save_costs(inputs, COSTS)
        assert store.load_costs(inputs) == COSTS

    def test_churn_costs_round_trip_bit_exact(self, store):
        inputs = {"churn": ChurnConfig(1800.0, 1200.0), "seed": 3}
        store.save_churn_costs(inputs, CHURN_COSTS)
        assert store.load_churn_costs(inputs) == CHURN_COSTS

    def test_probe_round_trip(self, store):
        store.save_probe({"n": 1}, 7.321)
        assert store.load_probe({"n": 1}) == 7.321

    def test_missing_artifacts_load_none(self, store):
        assert store.load_costs({"seed": 99}) is None
        assert store.load_churn_costs({"seed": 99}) is None
        assert store.load_probe({"seed": 99}) is None
        assert store.load_report("0" * 64) is None

    def test_stats_track_hits_and_misses_per_kind(self, store):
        store.load_costs({"seed": 0})
        store.save_costs({"seed": 0}, COSTS)
        store.load_costs({"seed": 0})
        assert store.stats["costs"] == {"hits": 1, "misses": 1}

    def test_hits_and_misses_emit_obs_counters(self, store):
        obs.enable()
        try:
            store.load_costs({"seed": 0})
            store.save_costs({"seed": 0}, COSTS)
            store.load_costs({"seed": 0})
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert counters["cache.store.miss"] == 1
        assert counters["cache.store.hit"] == 1
        assert counters["cache.store.costs.miss"] == 1
        assert counters["cache.store.costs.hit"] == 1

    def test_wrong_kind_payload_is_refused(self, store):
        key = store.key_for("costs", {"seed": 0})
        store.save("costs", key, serialize.costs_to_payload(COSTS))
        store.db.put(
            key, "costs", json.dumps({"type": "gibberish"}), "1.0"
        )
        with pytest.raises(ValueError, match="gibberish"):
            store.load("costs", key)


class TestReportRoundTrip:
    def test_fastsim_report_survives_bit_exact(self, store):
        params = simulation_scenario(scale=0.02)
        report = run_fastsim(
            params,
            duration=40.0,
            strategy="partialSelection",
            seed=3,
            window=10.0,
        )
        store.save_report("k" * 64, report)
        loaded = store.load_report("k" * 64)
        assert loaded == report
        for field in dataclasses.fields(report):
            assert getattr(loaded, field.name) == getattr(
                report, field.name
            ), field.name
        assert loaded.hit_rate_series == report.hit_rate_series
        assert loaded.params == report.params
        # Dict *order* must survive too: dict equality ignores it, but
        # sum() over the values is order-sensitive in the last ulp.
        assert list(loaded.messages_by_category.items()) == list(
            report.messages_by_category.items()
        )


class TestActiveStore:
    def test_default_is_no_store(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert active_store() is None

    def test_using_store_restores_prior_state(self, store):
        with using_store(store):
            assert active_store() is store
        assert active_store() is not store

    def test_env_variable_opens_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env.sqlite"
        monkeypatch.setenv(STORE_ENV, str(path))
        opened = active_store()
        assert opened is not None
        assert opened.path == str(path)
        # Resolved lazily but cached: same handle on repeat lookups.
        assert active_store() is opened

    def test_explicit_none_masks_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        with using_store(None):
            assert active_store() is None


class TestCalibrationsThroughStore:
    def test_fresh_process_semantics_reuse_disk_calibration(self, store):
        """Clearing the L1 (what a fresh process means) must hit the L2."""
        from repro.fastsim.compare import _costs_for_cached, costs_for
        from repro.pdht.config import PdhtConfig

        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        _costs_for_cached.cache_clear()  # earlier tests may have warmed L1
        with using_store(store):
            first = costs_for(params, config, 60)
            _costs_for_cached.cache_clear()
            second = costs_for(params, config, 60)
        assert first == second
        assert first.source == "calibrated"
        assert store.stats["costs"]["hits"] == 1
        assert store.stats["costs"]["misses"] == 1

    def test_calibration_seconds_zero_on_warm_start(self, store):
        """A store hit never enters the calibrate.* span."""
        from repro.fastsim.compare import _costs_for_cached, costs_for
        from repro.pdht.config import PdhtConfig

        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        _costs_for_cached.cache_clear()  # earlier tests may have warmed L1
        with using_store(store):
            costs_for(params, config, 60)
            _costs_for_cached.cache_clear()
            obs.enable()
            try:
                costs_for(params, config, 60)
                spans = obs.collector().snapshot()["spans"]
            finally:
                obs.disable()
        assert "calibrate.costs" not in spans
