"""Resumable execution: run_many, sweep_grid, replicates, and the CLI."""

from __future__ import annotations

import json
import sqlite3
from dataclasses import replace

import pytest

from repro import obs
from repro.experiments.scenario import simulation_scenario
from repro.experiments.sweeps import GridAxes, sweep_grid
from repro.fastsim.parallel import FastSimJob, job_key, resolve_jobs, run_many
from repro.pdht.config import PdhtConfig
from repro.store import Store, using_store
from repro.store import store as store_module

DURATION = 40.0


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path / "artifacts.sqlite") as handle:
        yield handle


@pytest.fixture(autouse=True)
def _clean_active_store(monkeypatch):
    """No explicit active store: ``REPRO_STORE`` resolution, restored
    after the test."""
    monkeypatch.setattr(store_module, "_active", store_module._UNSET)


@pytest.fixture
def params():
    return simulation_scenario(scale=0.02)


def _jobs(params, seeds=(3, 4, 5, 6)):
    config = PdhtConfig.from_scenario(params)
    return [
        FastSimJob(
            params=params,
            strategy="partialSelection",
            seed=seed,
            duration=DURATION,
            config=config,
        )
        for seed in seeds
    ]


class TestRunManyResume:
    def test_interrupted_run_resumes_with_zero_recomputation(
        self, params, store
    ):
        jobs = _jobs(params)
        # "Interrupted": only the first two jobs completed before the kill.
        partial = run_many(jobs[:2], store=store)
        obs.enable()
        try:
            full = run_many(jobs, store=store)
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert counters["cache.store.sweep_cell.hit"] == 2
        assert counters["cache.store.sweep_cell.miss"] == 2
        # Loaded cells are bit-identical to the originals.
        assert full[:2] == partial

    def test_completed_run_reruns_without_any_compute(self, params, store):
        jobs = _jobs(params)
        first = run_many(jobs, store=store)
        obs.enable()
        try:
            second = run_many(jobs, store=store)
            collected = obs.collector()
        finally:
            obs.disable()
        assert second == first
        assert collected.counters["cache.store.sweep_cell.hit"] == len(jobs)
        assert "cache.store.sweep_cell.miss" not in collected.counters
        # No kernel ran at all on the warm pass.
        assert "parallel.run_many/kernel.run" not in collected.snapshot()["spans"]

    def test_key_mismatch_recomputes_only_that_job(self, params, store):
        jobs = _jobs(params)
        run_many(jobs, store=store)
        changed = [
            jobs[0],
            jobs[1],
            FastSimJob(
                params=params,
                strategy="partialSelection",
                seed=99,  # <- new seed, new key
                duration=DURATION,
                config=jobs[2].config,
            ),
            jobs[3],
        ]
        obs.enable()
        try:
            run_many(changed, store=store)
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert counters["cache.store.sweep_cell.hit"] == 3
        assert counters["cache.store.sweep_cell.miss"] == 1

    def test_resumed_results_match_store_free_run(self, params, store):
        jobs = _jobs(params)
        run_many(jobs[:2], store=store)
        resumed = run_many(jobs, store=store)
        baseline = run_many(jobs, store=None)
        with using_store(None):
            no_store = run_many(jobs)
        for a, b, c in zip(resumed, baseline, no_store):
            # Every field but the wall clock.
            da, db, dc = (
                replace(r, elapsed_seconds=0.0) for r in (a, b, c)
            )
            assert da == db == dc
            assert a.hit_rate_series == b.hit_rate_series

    def test_pool_execution_also_saves_and_loads(self, params, store):
        jobs = _jobs(params)
        pooled = run_many(jobs, workers=2, store=store)
        warm = run_many(jobs, workers=2, store=store)
        assert warm == pooled
        assert store.stats["sweep_cell"]["hits"] == len(jobs)

    def test_job_key_requires_resolution_for_stability(self, params, store):
        [job] = _jobs(params, seeds=(3,))
        [resolved] = resolve_jobs([job])
        assert job_key(resolved) != job_key(job)
        assert job_key(resolved) == job_key(resolved)


class TestSweepGridResume:
    AXES = GridAxes(
        ttl_factors=(0.5, 1.0),
        alphas=(0.6,),
        query_freqs=(1.0 / 30.0,),
        availabilities=(1.0,),
    )

    def test_sweep_grid_resumes_bit_identical(self, params, store):
        with using_store(store):
            cold = sweep_grid(self.AXES, params, duration=DURATION, seed=0)
            obs.enable()
            try:
                warm = sweep_grid(
                    self.AXES, params, duration=DURATION, seed=0
                )
                counters = obs.collector().counters
            finally:
                obs.disable()
        assert warm.series == cold.series
        assert warm.x_values == cold.x_values
        assert counters["cache.store.sweep_cell.hit"] == 2
        assert "cache.store.sweep_cell.miss" not in counters

    def test_parameter_tweak_recomputes_only_new_cells(self, params, store):
        with using_store(store):
            sweep_grid(self.AXES, params, duration=DURATION, seed=0)
            wider = GridAxes(
                ttl_factors=(0.5, 1.0, 2.0),
                alphas=(0.6,),
                query_freqs=(1.0 / 30.0,),
                availabilities=(1.0,),
            )
            obs.enable()
            try:
                sweep_grid(wider, params, duration=DURATION, seed=0)
                counters = obs.collector().counters
            finally:
                obs.disable()
        # The two stationary cells carry over (their workload/seed do not
        # depend on the grid shape); only the new TTL cell computes.
        assert counters["cache.store.sweep_cell.hit"] == 2
        assert counters["cache.store.sweep_cell.miss"] == 1


class TestReplicateResume:
    def test_replicates_resume_and_extend(self, tmp_path):
        from repro.experiments import api

        path = str(tmp_path / "artifacts.sqlite")
        first = api.run(
            "staleness",
            engine="vectorized",
            duration=DURATION,
            scale=0.02,
            replicates=2,
            store=path,
        )
        obs.enable()
        try:
            again = api.run(
                "staleness",
                engine="vectorized",
                duration=DURATION,
                scale=0.02,
                replicates=3,
                store=path,
            )
            telemetry = again.telemetry
        finally:
            obs.disable()
        counters = telemetry["counters"]
        assert counters["cache.store.replicate.hit"] == 2
        assert counters["cache.store.replicate.miss"] == 1
        assert again.replication["seeds"][:2] == first.replication["seeds"]
        for name, values in first.replication["per_seed"].items():
            assert again.replication["per_seed"][name][:2] == values

    def test_store_none_sentinel_disables_store(self, tmp_path, monkeypatch):
        from repro.experiments import api
        from repro.store import STORE_ENV

        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        obs.enable()
        try:
            result = api.run(
                "staleness",
                engine="vectorized",
                duration=DURATION,
                scale=0.02,
                replicates=2,
                store="none",
            )
        finally:
            obs.disable()
        counters = result.telemetry["counters"]
        assert not any(k.startswith("cache.store.") for k in counters)


class TestRunnerFlags:
    def test_store_flag_round_trips_results(self, tmp_path, capsys):
        from repro.experiments.runner import main

        path = str(tmp_path / "artifacts.sqlite")
        args = [
            "staleness",
            "--engine", "vectorized",
            "--duration", str(DURATION),
            "--scale", "0.02",
            "--format", "json",
            "--store", path,
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args + ["--profile"]) == 0
        captured = capsys.readouterr()
        warm = json.loads(captured.out)
        assert warm["figure"] == cold["figure"]

    def test_no_store_flag_masks_env(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.runner import main
        from repro.store import STORE_ENV

        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        assert main(
            [
                "staleness",
                "--engine", "vectorized",
                "--duration", str(DURATION),
                "--scale", "0.02",
                "--format", "json",
                "--no-store",
                "--profile",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["telemetry"]["counters"]
        assert not any(k.startswith("cache.store.") for k in counters)

    def test_store_and_no_store_are_mutually_exclusive(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["staleness", "--store", "x.sqlite", "--no-store"])


class TestCorruptRow:
    def test_a_truncated_cell_is_a_counted_miss_and_its_row_rewritten(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import sweeps
        from repro.experiments.runner import main

        path = tmp_path / "artifacts.sqlite"
        args = ["sweep", "--scale", "0.3", "--duration", "20",
                "--format", "json", "--store", str(path)]
        assert main(args) == 0
        clean = json.loads(capsys.readouterr().out)
        db = sqlite3.connect(path)
        key, payload = db.execute(
            "SELECT key, payload FROM artifacts WHERE kind = 'sweep_cell' "
            "ORDER BY key LIMIT 1"
        ).fetchone()
        with db:
            db.execute("UPDATE artifacts SET payload = ? WHERE key = ?",
                       (payload[: len(payload) // 2], key))
        # The rerun reads the store, not this process's grid cache.
        monkeypatch.setattr(sweeps, "_GRID_CACHE", {})
        assert main(args + ["--profile"]) == 0
        rerun = json.loads(capsys.readouterr().out)
        counters = rerun["telemetry"]["counters"]
        assert rerun["figure"] == clean["figure"]
        assert counters["cache.store.corrupt"] == 1
        assert counters["cache.store.sweep_cell.miss"] == 1
        assert counters["cache.store.sweep_cell.hit"] == 17
        (rewritten,) = db.execute(
            "SELECT payload FROM artifacts WHERE key = ?", (key,)
        ).fetchone()
        db.close()
        rewritten, payload = json.loads(rewritten), json.loads(payload)
        assert rewritten.pop("elapsed_seconds") > 0  # wall clock: recomputed
        payload.pop("elapsed_seconds")
        assert rewritten == payload
