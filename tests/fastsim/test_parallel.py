"""Tests for the multi-process job runner (repro.fastsim.parallel)."""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import parallel, run_fastsim
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
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.store import Store

SCALE = 0.02
DURATION = 40.0
CHURN = ChurnConfig(mean_session=1800.0, mean_offline=1800.0)


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

    def test_one_eq14_prefix_per_scenario_for_all_its_key_ttls(
        self, monkeypatch
    ):
        from repro.analysis import selection_model

        prefixes = []
        real = selection_model._log_absence

        def counted(probs, rate, out):
            prefixes.append(rate)
            return real(probs, rate, out)

        monkeypatch.setattr(selection_model, "_log_absence", counted)
        selection_model.selection_outcome.cache_clear()
        # Above the calibration limit: analytical costs, no substrate.
        busy = simulation_scenario(scale=0.3)
        quiet = busy.with_query_freq(1 / 600)
        jobs = []
        for params in (busy, quiet):
            config = PdhtConfig.from_scenario(params)
            # A churned cell plans in its scenario's column too.
            for factor, churn in ((0.5, None), (1.0, None), (2.0, CHURN)):
                jobs.append(FastSimJob(
                    params, seed=0, duration=10.0, churn=churn,
                    config=config.with_ttl(config.key_ttl * factor),
                ))
        resolve_jobs(jobs)
        assert prefixes == [busy.network_query_rate, quiet.network_query_rate]
        info = selection_model.selection_outcome.cache_info()
        assert info.misses == 6  # one evaluation per scenario and keyTtl

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

    @pytest.mark.parametrize("workers", (1, 2))
    def test_kernel_runs_report_their_resource_usage(
        self, strategy_jobs, telemetry, workers
    ):
        # Summed over the pool's workers by the snapshot merge; CPU time
        # against kernel.run's wall time tells waiting from computing,
        # and a worker sharing a CPU is preempted (nivcsw) every slice.
        run_many(strategy_jobs, workers=workers)
        counters = dict(telemetry.counters)
        assert counters["rusage.kernel.cpu_s"] >= 0.0
        assert counters["rusage.kernel.minflt"] >= 0
        assert counters["rusage.kernel.nivcsw"] >= 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_a_pool_hands_out_the_longest_units_first(
        self, monkeypatch, params, workers
    ):
        # A unit's length is its expected queries (fQry x peers x
        # duration): a pool starts the longest first, so no worker starts
        # it last; the in-process path keeps job order. Reports come back
        # in job order either way.
        jobs = [
            FastSimJob(params=params.with_query_freq(freq), duration=DURATION)
            for freq in (1 / 300, 1 / 30, 1 / 100)
        ]
        expected = [report.queries for report in run_many(jobs)]
        handed = []

        def in_process(units, size, finish, *args, **kwargs):
            for position, unit in enumerate(units):
                handed.append(unit.jobs[0].params.query_freq)
                finish(position, unit.run())

        monkeypatch.setattr(parallel, "fan_out", in_process)
        reports = run_many(jobs, workers=workers)
        freqs = [job.params.query_freq for job in jobs]
        assert handed == (
            sorted(freqs, reverse=True) if workers > 1 else freqs
        )
        assert [report.queries for report in reports] == expected

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


@dataclass(frozen=True)
class Where:
    """A unit that reports where its worker placed itself: the placement
    index (:data:`parallel._placed`) and the CPUs it may run on.

    It first waits until ``parties`` units of its fan-out have started
    (a file each in ``directory``), so no worker can run two of them.
    """

    directory: str
    index: int
    parties: int

    def run(self) -> tuple:
        Path(self.directory, str(self.index)).touch()
        deadline = time.monotonic() + 60.0
        while len(os.listdir(self.directory)) < self.parties:
            assert time.monotonic() < deadline, "a unit never started"
            time.sleep(0.005)
        return parallel._placed, os.sched_getaffinity(0)


def _where(tmp_path, workers: int, parties: int) -> list[tuple]:
    seen = []
    fan_out(
        [Where(str(tmp_path), index, parties) for index in range(2)],
        workers, lambda position, where: seen.append(where), "test.where",
    )
    return seen


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call"
)
class TestPlacement:
    """Pool workers start on CPUs of their own and end up unpinned.

    Mutations caught (each tried on a copy of ``parallel.py``): the mask
    left pinned to the worker's CPU (a worker's mask is not the parent's);
    both workers given one index (the indexes are not distinct);
    placement on the in-process path (the calling process records a
    placement).
    """

    @pytest.mark.skipif(
        hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
        reason="fewer than 2 usable CPUs",
    )
    def test_two_workers_take_distinct_indexes_and_keep_the_parents_mask(
        self, tmp_path
    ):
        cpus = os.sched_getaffinity(0)
        seen = _where(tmp_path, 2, parties=2)
        assert all(isinstance(index, int) for index, _ in seen)
        assert len({index for index, _ in seen}) == 2
        assert [mask for _, mask in seen] == [cpus, cpus]

    def test_the_in_process_path_places_nothing(self, tmp_path):
        cpus = os.sched_getaffinity(0)
        assert _where(tmp_path, 1, parties=1) == [(None, cpus)] * 2
        assert parallel._placed is None
        assert os.sched_getaffinity(0) == cpus

    def test_one_usable_cpu_places_nothing_and_changes_no_report(
        self, tmp_path, strategy_jobs
    ):
        before = os.sched_getaffinity(0)
        alone = {min(before)}
        try:
            os.sched_setaffinity(0, alone)
            seen = _where(tmp_path, 2, parties=2)
            pooled = run_many(strategy_jobs, workers=2)
        finally:
            os.sched_setaffinity(0, before)
        assert seen == [(None, alone)] * 2
        sequential = run_many(strategy_jobs, workers=1)
        assert [replace(r, elapsed_seconds=0.0) for r in pooled] == [
            replace(r, elapsed_seconds=0.0) for r in sequential
        ]
