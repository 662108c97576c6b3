"""Tests for the workload-model schedules (repro.workloads.models)."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.workloads import (
    WORKLOAD_MODEL_NAMES,
    DiurnalCycle,
    FlashCrowd,
    GradualDrift,
    QueryEvent,
    QueryTrace,
    RankSwap,
    StationaryZipf,
    TraceReplay,
    model_from_name,
)


def _identity(n: int = 50) -> np.ndarray:
    return np.arange(n)


class TestStationary:
    def test_no_boundaries_no_rate_change(self):
        model = StationaryZipf()
        assert model.next_boundary(-math.inf) == math.inf
        assert model.rate_multiplier(123.0) == 1.0
        assert model.rate_multipliers(np.arange(5.0)) is None
        assert model.calibration_model is None


class TestRankSwap:
    def test_single_boundary_schedule(self):
        model = RankSwap(shift_time=60.0)
        assert model.next_boundary(-math.inf) == 60.0
        assert model.next_boundary(59.9) == 60.0
        assert model.next_boundary(60.0) == math.inf

    def test_apply_is_a_full_permutation(self, rng):
        model = RankSwap(shift_time=1.0)
        mapping = model.apply(1.0, _identity(), rng)
        assert sorted(mapping) == list(range(50))
        assert (mapping != _identity()).any()

    def test_calibratable(self):
        assert RankSwap(5.0).calibration_model is not None

    def test_negative_shift_rejected(self):
        with pytest.raises(ParameterError):
            RankSwap(shift_time=-1.0)


class TestGradualDrift:
    def test_periodic_boundaries(self):
        model = GradualDrift(period=50.0)
        assert model.next_boundary(-math.inf) == 50.0
        assert model.next_boundary(50.0) == 100.0
        assert model.next_boundary(125.0) == 150.0

    def test_apply_moves_little_per_step(self, rng):
        model = GradualDrift(period=1.0, swap_fraction=0.02)
        mapping = model.apply(1.0, _identity(500), rng)
        assert sorted(mapping) == list(range(500))
        # Adjacent transpositions: nobody moves more than `swaps` ranks.
        moved = np.abs(mapping - _identity(500))
        assert moved.max() <= max(1, int(round(0.02 * 500)))
        assert (mapping != _identity(500)).any()

    def test_drift_wanders_the_head(self, rng):
        model = GradualDrift(period=1.0, swap_fraction=0.05)
        mapping = _identity(200)
        for step in range(1, 101):
            mapping = model.apply(float(step), mapping, rng)
        # The head-biased walk must actually change who is hot.
        assert (mapping[:10] != _identity(200)[:10]).any()

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            GradualDrift(period=0.0)
        with pytest.raises(ParameterError):
            GradualDrift(swap_fraction=0.0)
        with pytest.raises(ParameterError):
            GradualDrift(head_bias=0.5)


class TestFlashCrowd:
    def test_promote_then_demote_is_identity(self, rng):
        model = FlashCrowd(at=10.0, hot_for=20.0, cold_rank=30)
        promoted = model.apply(10.0, _identity(), rng)
        assert promoted[0] == 29
        restored = model.apply(30.0, promoted, rng)
        assert np.array_equal(restored, _identity())

    def test_boundary_schedule(self):
        model = FlashCrowd(at=10.0, hot_for=20.0)
        assert model.next_boundary(-math.inf) == 10.0
        assert model.next_boundary(10.0) == 30.0
        assert model.next_boundary(30.0) == math.inf

    def test_permanent_crowd(self):
        model = FlashCrowd(at=5.0)
        assert model.next_boundary(5.0) == math.inf

    def test_default_cold_rank_is_the_tail(self, rng):
        model = FlashCrowd(at=0.0)
        assert model.apply(0.0, _identity(), rng)[0] == 49

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            FlashCrowd(at=-1.0)
        with pytest.raises(ParameterError):
            FlashCrowd(at=1.0, hot_for=0.0)
        with pytest.raises(ParameterError):
            FlashCrowd(at=1.0, cold_rank=0)
        with pytest.raises(ParameterError):
            FlashCrowd(at=0.0, cold_rank=99).apply(
                0.0, _identity(), np.random.default_rng(0)
            )


class TestDiurnalCycle:
    def test_rate_oscillates_around_one(self):
        model = DiurnalCycle(period=100.0, amplitude=0.5)
        values = model.rate_multipliers(np.arange(100.0))
        assert values is not None
        assert values.min() >= 0.0
        assert values.mean() == pytest.approx(1.0, abs=0.02)
        assert values.max() == pytest.approx(1.5, abs=0.01)
        assert model.rate_multiplier(25.0) == pytest.approx(1.5)

    def test_no_mapping_boundaries(self):
        model = DiurnalCycle()
        assert model.next_boundary(-math.inf) == math.inf
        assert model.calibration_model is None

    def test_amplitude_above_one_clamps_at_zero(self):
        model = DiurnalCycle(period=4.0, amplitude=2.0)
        assert model.rate_multiplier(3.0) == 0.0


class TestTraceReplay:
    def _trace(self) -> QueryTrace:
        trace = QueryTrace(n_keys=10)
        for t, rank in ((0.5, 1), (1.5, 2), (1.7, 1)):
            trace.append(QueryEvent(time=t, rank=rank, key_index=rank - 1))
        return trace

    def test_needs_key_universe(self):
        with pytest.raises(ParameterError, match="n_keys"):
            TraceReplay(QueryTrace())

    def test_not_calibratable_not_composable(self):
        model = TraceReplay(self._trace())
        assert model.calibration_model is None

    def test_from_file_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._trace().save(path)
        model = TraceReplay.from_file(path)
        assert len(model.trace) == 3


class TestPresets:
    @pytest.mark.parametrize("name", WORKLOAD_MODEL_NAMES)
    def test_every_preset_builds(self, name):
        model = model_from_name(name, duration=240.0)
        assert model.name == name

    def test_shift_at_override(self):
        model = model_from_name("rank-swap", 240.0, shift_at=30.0)
        assert model.next_boundary(-math.inf) == 30.0

    def test_trace_prefix(self, tmp_path):
        trace = QueryTrace(n_keys=5)
        trace.append(QueryEvent(time=0.0, rank=1, key_index=0))
        path = tmp_path / "t.jsonl"
        trace.save(path)
        model = model_from_name(f"trace:{path}", 100.0)
        assert isinstance(model, TraceReplay)

    def test_unknown_rejected(self):
        with pytest.raises(ParameterError, match="unknown workload"):
            model_from_name("nope", 100.0)

    def test_models_are_hashable_and_picklable(self):
        for name in WORKLOAD_MODEL_NAMES:
            model = model_from_name(name, 240.0)
            hash(model)
            assert pickle.loads(pickle.dumps(model)) == model
