"""Tests for the query stream as the kernel consumes it
(``model.build(...).draw_round`` / ``draw_rounds``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution, rank_probabilities
from repro.errors import ParameterError
from repro.workloads import FlashCrowd, RankSwap, StationaryZipf


@pytest.fixture
def zipf() -> ZipfDistribution:
    return ZipfDistribution(200, 1.2)


def _schedule_exhausted(workload) -> bool:
    """Every boundary of the stream's model has been applied."""
    return workload.next_boundary(0.0) == math.inf


class TestStationary:
    def test_draw_shapes_and_ranges(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        ranks, keys = workload.draw_round(now=1.0, count=500)
        assert ranks.shape == keys.shape == (500,)
        assert ranks.min() >= 1 and ranks.max() <= zipf.n_keys
        assert keys.min() >= 0 and keys.max() < zipf.n_keys

    def test_identity_mapping_at_start(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        ranks, keys = workload.draw_round(now=0.0, count=100)
        assert (keys == ranks - 1).all()
        assert workload.key_for_rank(1) == 0

    def test_zipf_head_dominates(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        ranks, _ = workload.draw_round(now=0.0, count=20_000)
        head_share = (ranks <= 20).mean()
        head_mass = rank_probabilities(zipf.n_keys, zipf.alpha)[:20].sum()
        assert head_share > head_mass - 0.05

    @pytest.mark.parametrize("size", [2, 5000])  # either side of the guide cutoff
    def test_extreme_uniforms_map_to_the_last_and_first_key(
        self, scripted_uniforms, size
    ):
        # The top uniform lies above the last CDF entry (cumsum is a few
        # ulp short of 1); it used to index one past the mapping.
        big = ZipfDistribution(40_000, 1.2)
        uniforms = np.full(size, np.nextafter(1.0, 0.0))
        uniforms[1::2] = 0.0
        for draw in (
            lambda w: w.draw_round(1.0, size),
            lambda w: w.draw_rounds(0.0, np.array([size]))[:2],
        ):
            ranks, keys = draw(StationaryZipf().build(big, scripted_uniforms(uniforms)))
            assert (ranks[0::2] == big.n_keys).all() and (ranks[1::2] == 1).all()
            assert (keys[0::2] == big.n_keys - 1).all() and (keys[1::2] == 0).all()

    def test_negative_count_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            StationaryZipf().build(zipf, rng).draw_round(now=0.0, count=-1)

    def test_bad_rank_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            StationaryZipf().build(zipf, rng).key_for_rank(0)


class TestShuffled:
    def test_mapping_permutes_once_at_shift(self, zipf, rng):
        workload = RankSwap(10.0).build(zipf, rng)
        assert workload.maybe_shift(9.9) is False
        assert workload.rank_to_key is None  # still the identity
        assert workload.maybe_shift(10.0) is True
        after = workload.rank_to_key.copy()
        assert sorted(after) == list(range(zipf.n_keys))
        assert (after != np.arange(zipf.n_keys)).any()
        assert workload.maybe_shift(11.0) is False  # only once

    def test_draw_applies_shift(self, zipf, rng):
        workload = RankSwap(5.0).build(zipf, rng)
        workload.draw_round(now=6.0, count=1)
        assert _schedule_exhausted(workload)


class TestFlashCrowd:
    def test_cold_key_promoted_to_rank_one(self, zipf, rng):
        workload = FlashCrowd(3.0).build(zipf, rng)
        cold_key = workload.key_for_rank(zipf.n_keys)
        assert workload.maybe_shift(3.0) is True
        assert workload.key_for_rank(1) == cold_key
        # Everyone else shifted down one rank, nobody lost.
        assert sorted(workload.rank_to_key) == list(range(zipf.n_keys))

    def test_custom_cold_rank(self, zipf, rng):
        workload = FlashCrowd(0.0, cold_rank=50).build(zipf, rng)
        promoted = workload.key_for_rank(50)
        workload.maybe_shift(0.0)
        assert workload.key_for_rank(1) == promoted

    def test_invalid_cold_rank_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            FlashCrowd(0.0, cold_rank=0).build(zipf, rng)


class TestIdentityMapping:
    """A stream holds the identity mapping as ``rank_to_key = None`` and
    copies rank indices as keys under it; its first shift makes the
    mapping an array, which draws then gather from. ``None`` survives
    pickle and shared-memory staging, so every copy of a stationary
    stream copies too, and a store key spells it as the identity list.

    Mutations run against ``fastsim/workload.py`` and
    ``workloads/adapters.py`` (on a scratch copy), each caught here: the
    store key spelling the identity as ``None`` (and by
    ``tests/store/test_pinned_job_keys.py``); the first boundary applied
    to ``None`` itself; a shift's mapping dropped, so the stream keeps
    ``None``; a draw passing no mapping after a shift.
    """

    def test_a_fresh_stream_copies(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        assert workload.rank_to_key is None
        ranks, keys, _ = workload.draw_rounds(0.0, np.full(3, 400))
        assert (keys == ranks - 1).all()
        assert workload.key_for_rank(7) == 6

    def test_a_shift_ends_the_copy(self, zipf):
        workload = RankSwap(3.0).build(zipf, _fresh_rng())
        ranks, keys, _ = workload.draw_rounds(0.0, np.full(6, 400))
        assert isinstance(workload.rank_to_key, np.ndarray)
        after = slice(2 * 400, None)  # rounds 3.. draw after the shift
        assert np.array_equal(
            keys[after], workload.rank_to_key[ranks[after] - 1]
        )
        assert (keys[:after.start] == ranks[:after.start] - 1).all()
        assert not (keys[after] == ranks[after] - 1).all()

    @pytest.mark.parametrize("route", ["fresh", "pickle", "shared memory"])
    def test_every_copy_of_a_stream_copies_the_same_keys(self, route):
        import pickle

        from repro.fastsim.shm import ShmArena, extract_arrays, restore_arrays

        zipf = ZipfDistribution(40_000, 1.2)  # a table staged to a segment
        workload = StationaryZipf().build(zipf, _fresh_rng())
        counts = np.array([700, 900])
        with ShmArena() as arena:
            copied = {
                "fresh": lambda: StationaryZipf().build(zipf, _fresh_rng()),
                "pickle": lambda: pickle.loads(pickle.dumps(workload)),
                "shared memory": lambda: restore_arrays(
                    pickle.loads(pickle.dumps(extract_arrays(workload, arena)))
                ),
            }[route]()
            assert copied.rank_to_key is None
            assert len(arena.segment_names) == (route == "shared memory")
            for got, want in zip(
                copied.draw_rounds(0.0, counts),
                workload.draw_rounds(0.0, counts),
            ):
                assert np.array_equal(got, want)

    def test_a_store_key_spells_the_identity_as_its_list(self, zipf, rng):
        from repro.store.keys import canonical_json

        fresh = StationaryZipf().build(zipf, rng)
        spelled = StationaryZipf().build(zipf, rng)
        spelled.rank_to_key = np.arange(zipf.n_keys)
        assert canonical_json(fresh) == canonical_json(spelled)
        assert fresh.rank_to_key is None


def _fresh_rng(seed: int = 1234) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


class TestDrawRounds:
    """Segment-batched draws must replay the per-round path bit-for-bit."""

    def _per_round(self, workload, start, counts):
        ranks_parts, keys_parts = [], []
        for i, count in enumerate(counts):
            ranks, keys = workload.draw_round(start + i + 1.0, int(count))
            ranks_parts.append(ranks)
            keys_parts.append(keys)
        return np.concatenate(ranks_parts), np.concatenate(keys_parts)

    @pytest.mark.parametrize("make", [
        lambda z: StationaryZipf().build(z, _fresh_rng()),
        lambda z: RankSwap(4.0).build(z, _fresh_rng()),
        lambda z: FlashCrowd(4.0).build(z, _fresh_rng()),
    ])
    def test_batched_equals_per_round(self, zipf, make):
        counts = np.array([3, 0, 7, 5, 2, 9, 0, 4])
        batched = make(zipf)
        ranks, keys, offsets = batched.draw_rounds(0.0, counts)
        looped = make(zipf)
        loop_ranks, loop_keys = self._per_round(looped, 0.0, counts)
        assert np.array_equal(ranks, loop_ranks)
        assert np.array_equal(keys, loop_keys)
        assert np.array_equal(offsets, np.concatenate(([0], np.cumsum(counts))))
        # Mappings end in the same (post-shift) state too.
        assert np.array_equal(batched.rank_to_key, looped.rank_to_key)

    def test_shift_applies_between_correct_rounds(self, zipf):
        # Shift at t=3: rounds 1-2 use the identity mapping, 3+ the
        # permuted one — exactly like per-round draw_round calls.
        workload = RankSwap(3.0).build(zipf, _fresh_rng())
        counts = np.array([50, 50, 50, 50])
        ranks, keys, offsets = workload.draw_rounds(0.0, counts)
        pre = slice(offsets[0], offsets[2])
        assert np.array_equal(keys[pre], ranks[pre] - 1)  # identity era
        post = slice(offsets[2], offsets[4])
        assert not np.array_equal(keys[post], ranks[post] - 1)
        assert np.array_equal(
            keys[post], workload.rank_to_key[ranks[post] - 1]
        )

    def test_rng_stream_continues_across_calls(self, zipf):
        whole = StationaryZipf().build(zipf, _fresh_rng())
        split = StationaryZipf().build(zipf, _fresh_rng())
        counts = np.array([4, 6, 1, 8])
        ranks_whole, _, _ = whole.draw_rounds(0.0, counts)
        first, _, _ = split.draw_rounds(0.0, counts[:2])
        second, _, _ = split.draw_rounds(2.0, counts[2:])
        assert np.array_equal(ranks_whole, np.concatenate([first, second]))

    def test_negative_counts_rejected(self, zipf):
        with pytest.raises(ParameterError):
            StationaryZipf().build(zipf, _fresh_rng()).draw_rounds(
                0.0, np.array([2, -1])
            )

    def test_empty_counts(self, zipf):
        ranks, keys, offsets = StationaryZipf().build(zipf, _fresh_rng()).draw_rounds(
            0.0, np.array([], dtype=np.int64)
        )
        assert ranks.size == keys.size == 0
        assert list(offsets) == [0]

    def test_out_buffers_are_reused(self, zipf):
        counts = np.array([3, 7, 5])
        total = int(counts.sum())
        buffers = (
            np.empty(total + 10, dtype=np.int64),
            np.empty(total + 10, dtype=np.int64),
        )
        fresh, _, _ = StationaryZipf().build(zipf, _fresh_rng()).draw_rounds(
            0.0, counts
        )
        ranks, keys, _ = StationaryZipf().build(zipf, _fresh_rng()).draw_rounds(
            0.0, counts, out=buffers
        )
        # Written into (views of) the caller's buffers, values identical
        # to the allocating path.
        assert ranks.base is buffers[0]
        assert keys.base is buffers[1]
        assert ranks.size == total
        assert np.array_equal(ranks, fresh)

    @pytest.mark.parametrize("bad", [
        lambda n: (np.empty(n - 1, dtype=np.int64),
                   np.empty(n, dtype=np.int64)),   # too small
        lambda n: (np.empty(n, dtype=np.int32),
                   np.empty(n, dtype=np.int64)),   # mistyped
    ])
    def test_unusable_out_buffers_are_ignored(self, zipf, bad):
        counts = np.array([4, 6])
        total = int(counts.sum())
        buffers = bad(total)
        ranks, keys, _ = StationaryZipf().build(zipf, _fresh_rng()).draw_rounds(
            0.0, counts, out=buffers
        )
        assert ranks.base is not buffers[0]
        fresh, _, _ = StationaryZipf().build(zipf, _fresh_rng()).draw_rounds(
            0.0, counts
        )
        assert np.array_equal(ranks, fresh)

    def test_next_boundary_is_a_pure_peek(self, zipf):
        workload = RankSwap(2.0).build(zipf, _fresh_rng())
        state = workload.rng.bit_generator.state
        assert workload.next_boundary(5.0) == 2.0
        assert workload.next_boundary(5.0) == 2.0  # no state consumed
        assert workload.rank_to_key is None
        assert workload.rng.bit_generator.state == state
        assert workload.maybe_shift(5.0) is True
        assert workload.next_boundary(5.0) == math.inf


class TestDrawMemory:
    def test_draw_rounds_peak_is_chunks_not_the_batch(self):
        """10^6 queries into supplied buffers allocate O(DRAW_CHUNK)
        temporaries, never an array the size of the batch."""
        import tracemalloc

        from repro.analysis.zipf import DRAW_CHUNK

        zipf = ZipfDistribution(40_000, 1.2)
        counts = np.full(200, 5000)
        total = int(counts.sum())
        out = (np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64))
        workload = StationaryZipf().build(zipf, _fresh_rng())
        workload.draw_rounds(0.0, counts[:1], out=out)  # guide table built
        tracemalloc.start()
        try:
            ranks, _, _ = workload.draw_rounds(1.0, counts, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ranks.base is out[0]
        one_batch_array = total * 8
        assert peak < 10 * DRAW_CHUNK * 8 < one_batch_array / 2


class TestBoundaryEdgeCases:
    """`next_boundary` edge cases (ISSUE 5 coverage satellite): a shift
    exactly on a draw-block boundary, two boundaries inside one block,
    and a boundary at t=0 — all must stay bit-identical to the
    per-round path."""

    def _per_round(self, workload, start, counts):
        ranks_parts, keys_parts = [], []
        for i, count in enumerate(counts):
            ranks, keys = workload.draw_round(start + i + 1.0, int(count))
            ranks_parts.append(ranks)
            keys_parts.append(keys)
        return np.concatenate(ranks_parts), np.concatenate(keys_parts)

    def test_shift_exactly_on_a_block_boundary(self, zipf):
        # The kernel splits draw_rounds calls at DRAW_BLOCK edges; a
        # shift landing exactly where one block ends and the next starts
        # must behave like one uninterrupted call.
        counts = np.array([5, 5, 5, 5, 5, 5])
        whole = RankSwap(4.0).build(zipf, _fresh_rng())
        ranks_whole, keys_whole, _ = whole.draw_rounds(0.0, counts)
        split = RankSwap(4.0).build(zipf, _fresh_rng())
        # First block covers rounds at t=1..3, second starts at t=4 — the
        # shift instant is exactly the second block's first round.
        r1, k1, _ = split.draw_rounds(0.0, counts[:3])
        r2, k2, _ = split.draw_rounds(3.0, counts[3:])
        assert np.array_equal(ranks_whole, np.concatenate([r1, r2]))
        assert np.array_equal(keys_whole, np.concatenate([k1, k2]))
        assert _schedule_exhausted(split)

    def test_two_boundaries_inside_one_block(self, zipf):
        from repro.workloads import FlashCrowd

        counts = np.array([6, 4, 8, 3, 7, 5, 2, 9, 1, 4])
        model = FlashCrowd(at=3.0, hot_for=3.0)  # boundaries at 3 and 6
        batched = model.build(zipf, _fresh_rng())
        ranks, keys, offsets = batched.draw_rounds(0.0, counts)
        looped = model.build(zipf, _fresh_rng())
        loop_ranks, loop_keys = self._per_round(looped, 0.0, counts)
        assert np.array_equal(ranks, loop_ranks)
        assert np.array_equal(keys, loop_keys)
        # Both boundaries applied: the crowd came and went.
        assert np.array_equal(batched.rank_to_key, np.arange(zipf.n_keys))

    def test_boundary_at_time_zero(self, zipf):
        workload = RankSwap(0.0).build(zipf, _fresh_rng())
        ranks, keys, _ = workload.draw_rounds(0.0, np.array([40, 40]))
        assert _schedule_exhausted(workload)
        # Every round drew under the permuted mapping.
        assert np.array_equal(keys, workload.rank_to_key[ranks - 1])
        assert not np.array_equal(keys, ranks - 1)

    def test_kernel_block_splits_are_bit_identical(self, monkeypatch):
        """End-to-end: a tiny DRAW_BLOCK forces many kernel block splits
        across a two-boundary workload; the seeded report must not move
        a bit relative to the default block size."""
        from repro.experiments.scenario import simulation_scenario
        from repro.fastsim import run_fastsim
        from repro.fastsim import kernel as kernel_module
        from repro.pdht.config import PdhtConfig
        from repro.workloads import FlashCrowd

        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        zipf_full = ZipfDistribution(params.n_keys, params.alpha)
        model = FlashCrowd(at=20.0, hot_for=20.0)

        def run():
            return run_fastsim(
                params,
                config=config,
                duration=60.0,
                seed=7,
                workload=model.build(zipf_full, _fresh_rng(5)),
                window=15.0,
            )

        baseline = run()
        monkeypatch.setattr(kernel_module, "DRAW_BLOCK", 64)
        tiny_blocks = run()
        assert tiny_blocks.queries == baseline.queries
        assert tiny_blocks.index_hits == baseline.index_hits
        assert tiny_blocks.total_messages == baseline.total_messages
        assert tiny_blocks.hit_rate_series == baseline.hit_rate_series


class TestEventEngineParity:
    """The event driver's per-round view (``draw``) and the kernel's
    arrays are the same stream: given the same generator state they
    realise the same post-shift rank -> key mapping and the same queries
    (the legacy event classes are the oracle in
    ``tests/workloads/test_legacy_equivalence.py``)."""

    def test_shuffled_mapping_matches_event_workload(self, zipf):
        batch = RankSwap(10.0).build(zipf, _fresh_rng(7))
        event = RankSwap(10.0).build(zipf, _fresh_rng(7))
        batch.draw_rounds(9.0, np.array([0]))
        assert event.draw(10.0, 0) == []
        assert _schedule_exhausted(batch) and _schedule_exhausted(event)
        assert np.array_equal(batch.rank_to_key, event.rank_to_key)
        assert not np.array_equal(batch.rank_to_key, np.arange(zipf.n_keys))

    def test_flash_crowd_mapping_matches_event_workload(self, zipf):
        batch = FlashCrowd(5.0).build(zipf, _fresh_rng(7))
        event = FlashCrowd(5.0).build(zipf, _fresh_rng(7))
        batch.draw_rounds(4.0, np.array([0]))
        assert event.draw(5.0, 0) == []
        assert np.array_equal(batch.rank_to_key, event.rank_to_key)
        assert event.key_for_rank(1) == zipf.n_keys - 1

    def test_shuffled_draw_streams_match_through_the_shift(self, zipf):
        """Same seed, same per-round call pattern -> the event driver's
        pairs and the batch arrays are the same queries."""
        batch = RankSwap(3.0).build(zipf, _fresh_rng(3))
        event = RankSwap(3.0).build(zipf, _fresh_rng(3))
        for now in (1.0, 2.0, 3.0, 4.0):
            ranks, keys = batch.draw_round(now, 40)
            assert event.draw(now, 40) == list(
                zip(ranks.tolist(), keys.tolist())
            )
        assert (
            batch.rng.bit_generator.state == event.rng.bit_generator.state
        )
