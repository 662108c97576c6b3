"""Integration tests: telemetry through the engines and worker pools."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import calibration_cache_stats, run_fastsim
from repro.fastsim.compare import (
    calibrate_churn_costs,
    churn_config_for_availability,
)
from repro.fastsim.parallel import FastSimJob, run_many
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.node import PeerPopulation
from repro.pdht.config import PdhtConfig
from repro.sim.engine import Simulation

SCALE = 0.02
DURATION = 40.0


@pytest.fixture(scope="module")
def params():
    return simulation_scenario(scale=SCALE)


class TestKernelInstrumentation:
    def test_enabled_run_is_bit_identical_to_disabled(self, params):
        baseline = run_fastsim(params, duration=DURATION, seed=3)
        obs.enable()
        telemetered = run_fastsim(params, duration=DURATION, seed=3)
        obs.disable()
        # Every field but the wall clock.
        assert replace(baseline, elapsed_seconds=0.0) == replace(
            telemetered, elapsed_seconds=0.0
        )
        assert baseline.hit_rate_series == telemetered.hit_rate_series

    def test_kernel_reports_phases_counters_and_rss(self, params):
        obs.enable()
        run_fastsim(params, duration=DURATION, seed=3)
        collected = obs.collector()
        spans = collected.snapshot()["spans"]
        assert spans["kernel.run"]["count"] == 1
        rounds = spans["kernel.run/round.queries"]["count"]
        assert rounds == int(DURATION)
        assert "kernel.run/round.maintain" in spans
        assert "kernel.run/draw" in spans
        assert collected.counters["kernel.runs"] == 1
        assert collected.counters["kernel.rounds"] == rounds
        assert collected.counters["kernel.queries"] > 0
        assert collected.snapshot()["gauges"]["kernel.peak_rss_bytes"] > 0

    def test_disabled_kernel_run_records_nothing(self, params):
        run_fastsim(params, duration=DURATION, seed=3)
        assert not obs.collector()


class TestChurnCalibrationInstrumentation:
    PROBES = 25

    def _calibrate(self, params):
        return calibrate_churn_costs(
            params, churn_config_for_availability(0.5, mean_session=60.0),
            seed=1, warmup=5.0, rounds=15.0, walk_probes=self.PROBES,
        )

    def test_enabled_calibration_is_bit_identical_to_disabled(self, params):
        baseline = self._calibrate(params)
        obs.enable()
        telemetered = self._calibrate(params)
        obs.disable()
        assert telemetered == baseline

    def test_walks_and_phases_are_attributed(self, params):
        obs.enable()
        self._calibrate(params)
        collected = obs.collector()
        counters, spans = collected.counters, collected.snapshot()["spans"]
        probes = spans["calibrate.churn/calibrate.churn.walk_probes"]
        queries = spans["calibrate.churn/calibrate.churn.queries"]
        assert probes["count"] == self.PROBES
        assert queries["count"] > 0
        # every probe is a search; query misses add the rest
        assert self.PROBES <= counters["walk.searches"]
        assert counters["walk.searches"] <= self.PROBES + queries["count"]
        assert counters["walk.hops"] >= counters["walk.searches"] > 0
        assert 0 <= counters.get("walk.failed", 0) <= counters["walk.searches"]
        attributed = probes["seconds"] + queries["seconds"]
        assert attributed <= spans["calibrate.churn"]["seconds"]

    def test_disabled_calibration_records_nothing(self, params):
        self._calibrate(params)
        assert not obs.collector()


class TestEventEngineInstrumentation:
    def test_engine_run_span_and_event_counter(self):
        obs.enable()
        fired = []
        sim = Simulation(round_hook=lambda: fired.append(sim.now))
        sim.run(until=3.5)
        collected = obs.collector()
        assert fired == [1.0, 2.0, 3.0]
        assert collected.snapshot()["spans"]["engine.run"]["count"] == 1
        assert collected.counters["engine.events"] == 3

    def test_event_counter_counts_churn_transitions_and_hooks(self):
        population = PeerPopulation(20)
        churn = ChurnProcess(
            population, ChurnConfig(mean_session=1.0, mean_offline=1.0),
            np.random.default_rng(0),
        )
        churn.start()
        before = population.liveness_epoch
        obs.enable()
        sim = Simulation(churn, lambda: None)
        sim.run(until=4.0)
        transitions = population.liveness_epoch - before
        assert transitions > 0
        assert obs.collector().counters["engine.events"] == transitions + 4
        assert sim.processed_events == transitions + 4

    def test_disabled_engine_run_records_nothing(self):
        sim = Simulation(round_hook=lambda: None)
        sim.run(until=2.0)
        assert not obs.collector()


class TestWorkerMerge:
    def _jobs(self, params):
        config = PdhtConfig.from_scenario(params)
        return [
            FastSimJob(
                params=params, strategy=name, seed=3, duration=DURATION,
                config=config,
            )
            for name in ("noIndex", "indexAll", "partialSelection")
        ]

    def test_pool_worker_telemetry_merges_into_parent(self, params):
        jobs = self._jobs(params)
        obs.enable()
        pooled = run_many(jobs, workers=2)
        collected = obs.collector()
        spans = collected.snapshot()["spans"]
        # one kernel.run per job, re-rooted under the fan-out span so
        # pooled profiles nest exactly like sequential ones, regardless
        # of which worker ran what or the multiprocessing start method
        assert spans["parallel.run_many/kernel.run"]["count"] == len(jobs)
        assert spans["parallel.run_many"]["count"] == 1
        assert collected.counters["kernel.runs"] == len(jobs)
        assert collected.snapshot()["gauges"]["worker.peak_rss_bytes"] > 0
        # telemetry does not perturb results: pooled == sequential
        obs.disable()
        sequential = run_many(jobs, workers=1)
        for fast, slow in zip(pooled, sequential):
            assert fast.hit_rate == slow.hit_rate

    def test_sequential_run_many_profile_has_same_shape(self, params):
        jobs = self._jobs(params)
        obs.enable()
        run_many(jobs, workers=1)
        spans = obs.collector().snapshot()["spans"]
        assert spans["parallel.run_many/kernel.run"]["count"] == len(jobs)
        assert spans["parallel.run_many"]["count"] == 1


class TestCalibrationCaches:
    def test_counted_cache_counts_hits_misses_and_size(self):
        from repro.obs.cache import _CACHES

        calls = []

        @obs.counted_cache("test_cache", maxsize=4)
        def double(x):
            calls.append(x)
            return 2 * x

        try:
            obs.enable()
            assert double(2) == 4
            assert double(2) == 4
            assert double(3) == 6
            collected = obs.collector()
            assert collected.counters["cache.test_cache.miss"] == 2
            assert collected.counters["cache.test_cache.hit"] == 1
            assert collected.snapshot()["gauges"]["cache.test_cache.size"] == 2
            assert calls == [2, 3]  # the hit never re-ran the body
            # cache_info/cache_clear pass through the counting wrapper
            info = double.cache_info()
            assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
            assert obs.cache_stats()["test_cache"] == {
                "hits": 1, "misses": 2, "size": 2, "maxsize": 4,
            }
            double.cache_clear()
            assert double.cache_info().currsize == 0
        finally:
            _CACHES.pop("test_cache", None)

    def test_counted_cache_silent_while_disabled(self):
        from repro.obs.cache import _CACHES

        @obs.counted_cache("test_cache", maxsize=4)
        def double(x):
            return 2 * x

        try:
            assert double(2) == 4
            assert double(2) == 4
            assert obs.collector().counters == {}
            assert double.cache_info().hits == 1
        finally:
            _CACHES.pop("test_cache", None)

    def test_costs_for_repeat_call_is_a_cache_hit(self, params):
        from repro.fastsim.compare import costs_for

        config = PdhtConfig.from_scenario(params)
        obs.enable()
        first = costs_for(params, config, 60)
        hits_before = obs.collector().counters.get("cache.costs.hit", 0)
        second = costs_for(params, config, 60)
        assert second == first
        counters = obs.collector().counters
        assert counters.get("cache.costs.hit", 0) == hits_before + 1

    def test_calibration_cache_stats_shape(self):
        stats = calibration_cache_stats()
        assert set(stats) >= {"costs", "churn_costs", "lookup_probe"}
        for info in stats.values():
            assert set(info) >= {"hits", "misses", "size", "maxsize"}
