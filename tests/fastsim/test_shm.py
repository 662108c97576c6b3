"""Shared-memory job staging (repro.fastsim.shm + pack_jobs).

The contract under test: staging is invisible to results (pooled shared
runs reproduce the sequential reports bit-for-bit), dramatic for payload
size (large arrays travel as tiny handles), and leak-free (every
``/dev/shm`` segment is unlinked when ``run_many`` returns — worker
crashes included).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.scenario import simulation_scenario
from repro.fastsim.parallel import (
    FastSimJob,
    pack_jobs,
    resolve_jobs,
    run_many,
)
from repro.fastsim.shm import (
    MIN_SHARE_BYTES,
    SHM_PREFIX,
    SharedArrayRef,
    ShmArena,
    attach,
    extract_arrays,
    leaked_segments,
    restore_arrays,
)
from repro.workloads import ModelBatchWorkload, RankSwap, StationaryZipf
from repro.pdht.config import PdhtConfig

# Large enough that the Zipf tables and rank->key mapping clear
# MIN_SHARE_BYTES (20k keys * 8 bytes = 160 KB per table); structural
# costs apply (num_peers > CALIBRATION_LIMIT) so resolution stays fast.
SCALE = 0.5
DURATION = 20.0


@pytest.fixture(scope="module")
def params():
    return simulation_scenario(scale=SCALE)


@pytest.fixture(scope="module")
def config(params):
    return PdhtConfig.from_scenario(params)


def build_jobs(params, config):
    # Fresh specs per call: jobs with workload=None are reusable (the
    # kernel derives the default workload per run), and fresh lists keep
    # the tests independent of each other's pack_jobs side effects.
    return [
        FastSimJob(
            params=params, strategy=name, seed=3, duration=DURATION,
            config=config, window=10.0,
        )
        for name in ("noIndex", "indexAll", "partialIdeal", "partialSelection")
    ]


class CrashingWorkload(ModelBatchWorkload):
    """Module-level (hence picklable) workload that dies mid-run, with a
    payload big enough to guarantee a shared segment exists to clean."""

    def __init__(self, zipf, rng):
        super().__init__(StationaryZipf(), zipf, rng)
        self.ballast = np.zeros(2 * MIN_SHARE_BYTES, dtype=np.uint8)

    def draw_rounds(self, start, counts, out=None):
        raise RuntimeError("worker crash (intentional, from the test)")


class TestShmArena:
    def test_share_attach_roundtrip(self):
        array = np.arange(100.0)
        with ShmArena() as arena:
            ref = arena.share(array)
            assert isinstance(ref, SharedArrayRef)
            assert ref.name.startswith(SHM_PREFIX)
            view = attach(ref)
            np.testing.assert_array_equal(view, array)
            assert view.dtype == array.dtype

    def test_attached_views_are_read_only(self):
        with ShmArena() as arena:
            view = attach(arena.share(np.arange(10)))
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 99

    def test_same_array_shares_one_segment(self):
        array = np.arange(50.0)
        with ShmArena() as arena:
            first = arena.share(array)
            second = arena.share(array)
            assert first is second
            assert len(arena.segment_names) == 1
            # A distinct array gets its own segment, equal values or not.
            arena.share(np.arange(50.0))
            assert len(arena.segment_names) == 2

    def test_total_bytes_tracks_payload(self):
        array = np.arange(1000, dtype=np.int64)
        with ShmArena() as arena:
            arena.share(array)
            assert arena.total_bytes >= array.nbytes

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        name = arena.share(np.arange(32.0)).name
        assert name in leaked_segments()
        arena.close()
        assert name not in leaked_segments()
        arena.close()  # second close is a no-op, not an error


class TestExtractRestore:
    def test_small_arrays_ride_the_pickle(self):
        small = {"a": np.arange(8)}
        with ShmArena() as arena:
            swapped = extract_arrays(small, arena)
            assert swapped["a"] is small["a"]
            assert arena.segment_names == []

    def test_large_arrays_become_refs(self):
        big = np.zeros(MIN_SHARE_BYTES, dtype=np.uint8)
        graph = {"big": big, "tag": "x"}
        with ShmArena() as arena:
            swapped = extract_arrays(graph, arena)
            assert isinstance(swapped["big"], SharedArrayRef)
            assert swapped["tag"] == "x"
            # The original graph is never touched.
            assert graph["big"] is big

    def test_workload_graph_roundtrip(self, params):
        from repro.fastsim.inputs import RoundInputs

        stationary = RoundInputs(3).workload(params)
        shifted = RankSwap(0.0).build(stationary.zipf, np.random.default_rng(3))
        shifted.maybe_shift(0.0)  # a mapping array to stage
        with ShmArena() as arena:
            for stream in (stationary, shifted):
                packed = extract_arrays(stream, arena)
                assert packed is not stream
                assert isinstance(packed.zipf._cumulative, SharedArrayRef)
                if stream is stationary:  # the identity: nothing to stage
                    assert packed.rank_to_key is None
                else:
                    assert isinstance(packed.rank_to_key, SharedArrayRef)
                # Originals untouched: the source stream still holds real
                # arrays and keeps working.
                assert isinstance(stream.zipf._cumulative, np.ndarray)
                restored = restore_arrays(packed)
                np.testing.assert_array_equal(
                    restored.zipf._cumulative, stream.zipf._cumulative
                )
                np.testing.assert_array_equal(
                    restored.rank_to_key, stream.rank_to_key
                )

    def test_guide_table_is_rebuilt_not_shipped(self, params):
        from repro.fastsim.inputs import RoundInputs

        workload = RoundInputs(3).workload(params)
        twin = RoundInputs(3).workload(params)
        counts = np.array([3000, 3000])  # large enough to use the guide
        before = len(pickle.dumps(workload.zipf))
        want = workload.draw_rounds(0.0, counts)
        # The table lives in a process-wide cache, not on the instance:
        # nothing new to pickle or to stage.
        assert len(pickle.dumps(workload.zipf)) == before
        with ShmArena() as arena:
            restored = restore_arrays(extract_arrays(twin, arena))
            assert len(arena.segment_names) == 1  # the CDF
            got = restored.draw_rounds(0.0, counts)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_min_bytes_override_forces_sharing(self):
        tiny = [np.arange(4.0)]
        with ShmArena() as arena:
            swapped = extract_arrays(tiny, arena, min_bytes=0)
            assert isinstance(swapped[0], SharedArrayRef)


class TestPackJobs:
    def test_payload_shrinks(self, params, config):
        from dataclasses import replace

        from repro.fastsim.inputs import RoundInputs

        # Give every job its explicit workload so the pickle-copy
        # baseline actually carries the arrays (a workload=None spec
        # pickles tiny and materialises in the kernel instead).
        resolved = [
            replace(job, workload=RoundInputs(job.seed).workload(params))
            for job in resolve_jobs(build_jobs(params, config))
        ]
        full = sum(len(pickle.dumps(job)) for job in resolved)
        with ShmArena() as arena:
            packed = pack_jobs(resolved, arena)
            staged = sum(len(pickle.dumps(job)) for job in packed)
            assert arena.total_bytes > 0
            assert staged < full / 10

    def test_default_workloads_deduplicate(self, params, config):
        resolved = resolve_jobs(build_jobs(params, config))
        with ShmArena() as arena:
            pack_jobs(resolved, arena)
            # Four jobs share one scenario: one cumulative table; their
            # identity rank->key mappings are None.
            assert len(arena.segment_names) == 1

    def test_originals_keep_their_workloads(self, params, config):
        resolved = resolve_jobs(build_jobs(params, config))
        with ShmArena() as arena:
            pack_jobs(resolved, arena)
            assert all(job.workload is None for job in resolved)


class TestRunManyShared:
    def test_shared_pool_matches_sequential_exactly(self, params, config):
        sequential = run_many(build_jobs(params, config), workers=1)
        shared = run_many(
            build_jobs(params, config), workers=2, shared_memory=True
        )
        for a, b in zip(sequential, shared):
            # Every field but the wall clock.
            assert replace(a, elapsed_seconds=0.0) == replace(
                b, elapsed_seconds=0.0
            )

    def test_no_segments_survive_the_call(self, params, config):
        run_many(build_jobs(params, config), workers=2, shared_memory=True)
        assert leaked_segments() == []

    def test_worker_crash_still_cleans_up(self, params):
        from repro.analysis.zipf import ZipfDistribution

        zipf = ZipfDistribution(params.n_keys, params.alpha)
        jobs = [
            FastSimJob(
                params=params,
                seed=seed,
                duration=DURATION,
                workload=CrashingWorkload(
                    zipf, np.random.default_rng(seed)
                ),
            )
            for seed in (0, 1)  # >= 2 jobs so the pool engages
        ]
        with pytest.raises(RuntimeError, match="worker crash"):
            run_many(jobs, workers=2, shared_memory=True)
        assert leaked_segments() == []
