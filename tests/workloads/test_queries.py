"""Tests for the query stream as the event driver consumes it
(``model.build(...).draw``), stationary and shifting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution, rank_probabilities
from repro.errors import ParameterError
from repro.workloads import FlashCrowd, RankSwap, StationaryZipf, record_trace


@pytest.fixture
def zipf():
    return ZipfDistribution(100, 1.2)


class TestStationary:
    def test_draw_returns_requested_count(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        assert len(workload.draw(0.0, 25)) == 25

    def test_extreme_uniforms_map_to_the_last_and_first_key(
        self, scripted_uniforms
    ):
        # The top uniform lies above the last CDF entry (cumsum is a few
        # ulp short of 1); it used to index one past the mapping.
        zipf = ZipfDistribution(40_000, 1.2)
        stream = scripted_uniforms([np.nextafter(1.0, 0.0), 0.0])
        last, first = StationaryZipf().build(zipf, stream).draw(0.0, 2)
        assert last == (40_000, 39_999)
        assert first == (1, 0)

    def test_events_carry_time_and_rank(self, zipf, rng):
        trace = record_trace(
            StationaryZipf().build(zipf, rng), duration=4, queries_per_round=10
        )
        assert [event.time for event in trace] == [
            float(t) for t in range(4) for _ in range(10)
        ]
        assert all(1 <= event.rank <= 100 for event in trace)

    def test_identity_mapping_initially(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        for rank, key_index in workload.draw(0.0, 50):
            assert key_index == rank - 1

    def test_zipf_shape(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        pairs = workload.draw(0.0, 10_000)
        top10 = sum(1 for rank, _ in pairs if rank <= 10) / len(pairs)
        head_mass = rank_probabilities(zipf.n_keys, zipf.alpha)[:10].sum()
        assert top10 == pytest.approx(head_mass, abs=0.03)

    def test_negative_count_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            StationaryZipf().build(zipf, rng).draw(0.0, -1)

    def test_rank_lookup_bounds(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        with pytest.raises(ParameterError):
            workload.key_for_rank(0)
        with pytest.raises(ParameterError):
            workload.key_for_rank(101)


class TestShuffled:
    def test_no_shift_before_time(self, zipf, rng):
        workload = RankSwap(100.0).build(zipf, rng)
        workload.draw(50.0, 10)
        assert workload.next_boundary(50.0) == 100.0
        assert workload.rank_to_key is None  # still the identity

    def test_shift_applies_once(self, zipf, rng):
        workload = RankSwap(100.0).build(zipf, rng)
        assert workload.maybe_shift(100.0) is True
        assert workload.maybe_shift(200.0) is False

    def test_mapping_changes_after_shift(self, zipf, rng):
        workload = RankSwap(10.0).build(zipf, rng)
        before = [workload.key_for_rank(r) for r in range(1, 101)]
        workload.draw(10.0, 1)
        after = [workload.key_for_rank(r) for r in range(1, 101)]
        assert before != after
        assert sorted(after) == sorted(before)  # still a permutation

    def test_negative_shift_time_rejected(self):
        with pytest.raises(ParameterError):
            RankSwap(-1.0)


class TestFlashCrowd:
    def test_cold_key_becomes_rank_one(self, zipf, rng):
        workload = FlashCrowd(5.0, cold_rank=100).build(zipf, rng)
        cold_key = workload.key_for_rank(100)
        workload.draw(5.0, 1)
        assert workload.key_for_rank(1) == cold_key

    def test_other_keys_shift_down(self, zipf, rng):
        workload = FlashCrowd(5.0, cold_rank=100).build(zipf, rng)
        old_rank1 = workload.key_for_rank(1)
        workload.draw(5.0, 1)
        assert workload.key_for_rank(2) == old_rank1

    def test_mapping_stays_permutation(self, zipf, rng):
        workload = FlashCrowd(0.0, cold_rank=42).build(zipf, rng)
        workload.draw(0.0, 1)
        mapping = [workload.key_for_rank(r) for r in range(1, 101)]
        assert sorted(mapping) == list(range(100))

    def test_default_cold_rank_is_tail(self, zipf, rng):
        workload = FlashCrowd(1.0).build(zipf, rng)
        tail_key = workload.key_for_rank(100)
        workload.draw(1.0, 1)
        assert workload.key_for_rank(1) == tail_key

    def test_invalid_cold_rank_rejected(self):
        with pytest.raises(ParameterError):
            FlashCrowd(1.0, cold_rank=0)
