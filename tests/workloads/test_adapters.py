"""Tests for the streams a model builds (repro.workloads.adapters): the
same model must realize the same workload through the event driver's
per-round view (``draw``) and the kernel's arrays (``draw_round`` /
``draw_rounds``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.workloads import (
    DiurnalCycle,
    FlashCrowd,
    GradualDrift,
    QueryTrace,
    RankSwap,
    StationaryZipf,
    TraceReplay,
    record_trace,
)


@pytest.fixture
def zipf() -> ZipfDistribution:
    return ZipfDistribution(200, 1.2)


def _rng(seed: int = 7) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


PERMUTING_MODELS = (
    RankSwap(shift_time=4.0),
    GradualDrift(period=3.0),
    FlashCrowd(at=3.0, hot_for=4.0),
)


class TestEngineParity:
    @pytest.mark.parametrize(
        "model", PERMUTING_MODELS, ids=lambda m: m.name
    )
    def test_event_and_batch_streams_match(self, zipf, model):
        """Same generator state -> the event driver's pairs and the
        batch arrays are the same queries, through every boundary."""
        batch = model.build(zipf, _rng())
        event = model.build(zipf, _rng())
        for now in np.arange(1.0, 12.0):
            ranks, keys = batch.draw_round(now, 25)
            assert event.draw(now, 25) == list(
                zip(ranks.tolist(), keys.tolist())
            )
            assert np.array_equal(batch.rank_to_key, event.rank_to_key)

    @pytest.mark.parametrize(
        "model", PERMUTING_MODELS, ids=lambda m: m.name
    )
    def test_batched_draw_rounds_equals_per_round(self, zipf, model):
        counts = np.array([4, 0, 9, 5, 2, 7, 0, 3, 6, 1])
        batched = model.build(zipf, _rng(3))
        ranks, keys, offsets = batched.draw_rounds(0.0, counts)
        looped = model.build(zipf, _rng(3))
        parts = [looped.draw_round(i + 1.0, int(c)) for i, c in enumerate(counts)]
        assert np.array_equal(ranks, np.concatenate([r for r, _ in parts]))
        assert np.array_equal(keys, np.concatenate([k for _, k in parts]))
        assert np.array_equal(batched.rank_to_key, looped.rank_to_key)

    def test_skipped_rounds_apply_all_pending_boundaries(self, zipf):
        """A consumer that jumps over several boundaries (sub-round drift
        periods) applies them all, in order — the mapping of a consumer
        that stopped at each one."""
        model = GradualDrift(period=0.5, swap_fraction=0.02)
        jumped = model.build(zipf, _rng(11))
        stepped = model.build(zipf, _rng(11))
        assert jumped.maybe_shift(3.0)  # boundaries 0.5, 1.0, ..., 3.0
        for at in np.arange(0.5, 3.5, 0.5):
            assert stepped.maybe_shift(at)
        assert np.array_equal(jumped.rank_to_key, stepped.rank_to_key)
        assert not np.array_equal(jumped.rank_to_key, np.arange(zipf.n_keys))
        assert jumped.next_boundary(3.0) == 3.5


class TestRateModulation:
    def test_batch_multipliers_match_event_multiplier(self, zipf):
        model = DiurnalCycle(period=40.0, amplitude=0.8)
        stream = model.build(zipf, _rng())
        values = stream.rate_multipliers(0.0, 10)
        assert values is not None
        for i, value in enumerate(values):
            assert value == pytest.approx(stream.rate_multiplier(i + 1.0))

    def test_permuting_models_keep_stationary_rate(self, zipf):
        batch = RankSwap(5.0).build(zipf, _rng())
        assert batch.rate_multipliers(0.0, 10) is None
        assert batch.rate_multiplier(3.0) == 1.0
        assert batch.fixed_counts(0.0, 10) is None


class TestTraceAdapters:
    @pytest.fixture
    def trace(self, zipf) -> QueryTrace:
        workload = StationaryZipf().build(zipf, _rng(42))
        return record_trace(workload, duration=12.0, queries_per_round=5)

    def test_key_universe_must_match(self, trace):
        other = ZipfDistribution(7, 1.2)
        with pytest.raises(ParameterError, match="keys"):
            TraceReplay(trace).build(other, _rng())

    def test_fixed_counts_cover_the_trace(self, zipf, trace):
        batch = TraceReplay(trace).build(zipf, _rng())
        counts = batch.fixed_counts(0.0, 12)
        assert counts.sum() == len(trace)
        assert (counts == 5).all()

    def test_draw_rounds_replays_the_recorded_events(self, zipf, trace):
        batch = TraceReplay(trace).build(zipf, _rng())
        counts = batch.fixed_counts(0.0, 12)
        ranks, keys, offsets = batch.draw_rounds(0.0, counts)
        assert list(ranks) == [e.rank for e in trace]
        assert list(keys) == [e.key_index for e in trace]
        assert offsets[-1] == len(trace)

    def test_draw_rounds_rejects_foreign_counts(self, zipf, trace):
        batch = TraceReplay(trace).build(zipf, _rng())
        with pytest.raises(ParameterError, match="counts"):
            batch.draw_rounds(0.0, np.array([1, 2, 3]))

    def test_event_adapter_replays_per_round(self, zipf, trace):
        event = TraceReplay(trace).build(zipf, _rng())
        replayed: list[tuple[int, int]] = []
        for now in np.arange(1.0, 13.0):
            replayed.extend(event.draw(now, 999))  # count is ignored
        assert replayed == [(e.rank, e.key_index) for e in trace]

    def test_event_and_batch_replays_match(self, zipf, trace):
        batch = TraceReplay(trace).build(zipf, _rng())
        event = TraceReplay(trace).build(zipf, _rng())
        for now in np.arange(1.0, 13.0):
            ranks, keys = batch.draw_round(now, 0)
            assert len(keys) == 5
            assert event.draw(now, 0) == list(
                zip(ranks.tolist(), keys.tolist())
            )


class TestBoundarySemantics:
    def test_boundary_at_zero_applies_before_the_first_round(self, zipf):
        batch = RankSwap(shift_time=0.0).build(zipf, _rng())
        assert batch.next_boundary(0.0) == 0.0
        ranks, keys, _ = batch.draw_rounds(0.0, np.array([50]))
        # The permutation applied before round 1 drew anything.
        assert not np.array_equal(keys, ranks - 1)

    def test_exhausted_schedule_reports_inf(self, zipf):
        batch = RankSwap(shift_time=2.0).build(zipf, _rng())
        batch.maybe_shift(2.0)
        assert batch.next_boundary(100.0) == math.inf
