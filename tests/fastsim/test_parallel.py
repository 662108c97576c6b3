"""Tests for the multi-process job runner (repro.fastsim.parallel)."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.fastsim.parallel import (
    FastSimJob,
    fan_out,
    resolve_jobs,
    resolve_worker_count,
    run_many,
)
from repro.fastsim.shm import MIN_SHARE_BYTES, leaked_segments
from repro.workloads import ModelBatchWorkload, StationaryZipf
from repro.obs import events as obs_events
from repro.pdht.config import PdhtConfig
from repro.store import Store

SCALE = 0.02
DURATION = 40.0


@pytest.fixture(scope="module")
def params():
    return simulation_scenario(scale=SCALE)


@pytest.fixture(scope="module")
def config(params):
    return PdhtConfig.from_scenario(params)


@pytest.fixture(scope="module")
def strategy_jobs(params, config):
    return [
        FastSimJob(
            params=params, strategy=name, seed=3, duration=DURATION,
            config=config,
        )
        for name in ("noIndex", "indexAll", "partialIdeal", "partialSelection")
    ]


class TestWorkerCount:
    def test_zero_means_cpu_count(self):
        assert 1 <= resolve_worker_count(0) <= (os.cpu_count() or 1)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call"
    )
    def test_zero_follows_a_narrowed_cpu_affinity(self):
        before = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(before)})
            assert resolve_worker_count(0) == 1
        finally:
            os.sched_setaffinity(0, before)
        assert os.sched_getaffinity(0) == before

    def test_positive_passthrough(self):
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            resolve_worker_count(-1)


class TestResolveJobs:
    def test_costs_resolved_in_parent(self, strategy_jobs):
        resolved = resolve_jobs(strategy_jobs)
        assert all(job.costs is not None for job in resolved)
        assert all(job.config is not None for job in resolved)
        # Original specs untouched (frozen dataclass, replace semantics).
        assert all(job.costs is None for job in strategy_jobs)

    def test_resolved_costs_match_kernel_derivation(self, strategy_jobs):
        from repro.fastsim.compare import costs_for
        from repro.fastsim.kernel import strategy_setup

        for job in resolve_jobs(strategy_jobs):
            policy = strategy_setup(job.params, job.config, job.strategy)
            assert job.costs == costs_for(
                job.params, job.config, policy.num_members
            )

    def test_jobs_are_picklable_once_resolved(self, strategy_jobs):
        for job in resolve_jobs(strategy_jobs):
            clone = pickle.loads(pickle.dumps(job))
            assert clone.strategy == job.strategy
            assert clone.costs == job.costs


class TestRunMany:
    def test_sequential_matches_direct_run(self, strategy_jobs, params, config):
        reports = run_many(strategy_jobs, workers=1)
        assert [r.strategy for r in reports] == [
            j.strategy for j in strategy_jobs
        ]
        for job, report in zip(strategy_jobs, reports):
            direct = run_fastsim(
                params,
                config=config,
                duration=DURATION,
                strategy=job.strategy,
                seed=job.seed,
            )
            assert report.total_messages == direct.total_messages
            assert report.hit_rate == direct.hit_rate

    def test_pool_matches_sequential_bit_for_bit(self, strategy_jobs):
        sequential = run_many(strategy_jobs, workers=1)
        pooled = run_many(strategy_jobs, workers=2)
        for a, b in zip(sequential, pooled):
            assert a.strategy == b.strategy
            assert a.total_messages == b.total_messages
            assert a.hit_rate == b.hit_rate
            assert a.messages_by_category == b.messages_by_category

    def test_windowed_series_survive_the_pool(self, params, config):
        job = FastSimJob(
            params=params, seed=1, duration=DURATION, config=config,
            window=10.0,
        )
        (pooled,) = run_many([job], workers=1)
        direct = run_fastsim(
            params, config=config, duration=DURATION, seed=1, window=10.0
        )
        assert pooled.hit_rate_series == direct.hit_rate_series

    def test_single_job_short_circuits_pool(self, params, config):
        # One job never pays for a pool, whatever workers says.
        job = FastSimJob(params=params, seed=0, duration=20.0, config=config)
        (report,) = run_many([job], workers=8)
        assert report.queries > 0

    def test_empty_job_list(self):
        assert run_many([], workers=4) == []


class CrashingWorkload(ModelBatchWorkload):
    """Module-level (hence picklable) workload that dies mid-run, with a
    payload big enough that ``shared_memory=True`` stages a segment."""

    def __init__(self, zipf, rng):
        super().__init__(StationaryZipf(), zipf, rng)
        self.ballast = np.zeros(2 * MIN_SHARE_BYTES, dtype=np.uint8)

    def draw_rounds(self, start, counts, out=None):
        raise RuntimeError("unit crash (intentional, from the test)")


class TestFanOutFailure:
    """A unit that raises: what the fan-out promises its caller."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_failure_keeps_earlier_units_saved(
        self, params, config, tmp_path, workers
    ):
        zipf = ZipfDistribution(params.n_keys, params.alpha)
        jobs = [
            FastSimJob(params=params, seed=0, duration=20.0, config=config),
            FastSimJob(params=params, seed=1, duration=20.0, config=config),
            FastSimJob(
                params=params, seed=2, duration=20.0, config=config,
                workload=CrashingWorkload(zipf, np.random.default_rng(2)),
            ),
        ]
        sink = obs_events.RingBufferSink()
        obs_events.set_sink(sink)
        obs.enable()
        try:
            with Store(tmp_path / "cells.sqlite") as store:
                with pytest.raises(RuntimeError, match="unit crash"):
                    run_many(
                        jobs, workers=workers, store=store,
                        shared_memory=True,
                    )
                # The two units ahead of the failure went through the
                # on-completion callback: a rerun recomputes only the rest.
                assert store.db.count("sweep_cell") == 2
        finally:
            obs.disable()
            installed = obs_events.set_sink(None)
        assert leaked_segments() == []
        # The worker entry resets *its* sink in a ``finally``; the caller's
        # stays — in the pool's parent and on the in-process path alike.
        assert installed is sink


class TestFanOut:
    def test_finish_sees_results_in_submission_order(self, strategy_jobs):
        seen = []
        fan_out(
            resolve_jobs(strategy_jobs), 2,
            lambda position, report: seen.append((position, report.strategy)),
            "parallel.jobs",
        )
        assert seen == [
            (i, job.strategy) for i, job in enumerate(strategy_jobs)
        ]
