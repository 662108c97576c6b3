"""Tests for multi-seed statistics."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments.stats import replicate, summarise


class TestSummarise:
    def test_mean_and_stdev(self):
        summary = summarise("m", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.stdev == pytest.approx(1.0)

    def test_ci_contains_mean_of_more_data(self):
        # 95% CI from 10 samples of a stable process should usually
        # contain the true mean; use a deterministic symmetric sample.
        samples = [10 + d for d in (-2, -1.5, -1, -0.5, 0, 0, 0.5, 1, 1.5, 2)]
        summary = summarise("m", samples)
        assert summary.low < 10 < summary.high

    def test_single_sample_has_infinite_ci(self):
        summary = summarise("m", [5.0])
        assert summary.ci_halfwidth == float("inf")
        assert summary.mean == 5.0

    def test_ci_shrinks_with_samples(self):
        few = summarise("m", [1.0, 2.0, 3.0])
        many = summarise("m", [1.0, 2.0, 3.0] * 10)
        assert many.ci_halfwidth < few.ci_halfwidth

    def test_higher_confidence_wider(self):
        narrow = summarise("m", [1.0, 2.0, 3.0], confidence=0.8)
        wide = summarise("m", [1.0, 2.0, 3.0], confidence=0.99)
        assert wide.ci_halfwidth > narrow.ci_halfwidth

    def test_overlap(self):
        a = summarise("a", [1.0, 2.0, 3.0])
        b = summarise("b", [2.0, 3.0, 4.0])
        c = summarise("c", [100.0, 101.0, 102.0])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            summarise("m", [])
        with pytest.raises(ParameterError):
            summarise("m", [1.0], confidence=1.5)


class TestReplicate:
    def test_aggregates_across_seeds(self):
        summary = replicate(
            lambda seed: {"value": float(seed), "constant": 7.0},
            seeds=[1, 2, 3],
        )
        assert summary["value"].mean == pytest.approx(2.0)
        assert summary["constant"].stdev == 0.0
        assert summary.seeds == (1, 2, 3)

    def test_metric_names_listed(self):
        summary = replicate(lambda seed: {"a": 1.0, "b": 2.0}, seeds=[1])
        assert summary.names() == ["a", "b"]

    def test_unknown_metric_rejected(self):
        summary = replicate(lambda seed: {"a": 1.0}, seeds=[1])
        with pytest.raises(ParameterError):
            summary["zzz"]

    def test_inconsistent_metrics_rejected(self):
        def flaky(seed: int):
            return {"a": 1.0} if seed == 1 else {"b": 1.0}

        with pytest.raises(ParameterError):
            replicate(flaky, seeds=[1, 2])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ParameterError):
            replicate(lambda seed: {"a": 1.0}, seeds=[])

    def test_empty_metrics_rejected(self):
        with pytest.raises(ParameterError):
            replicate(lambda seed: {}, seeds=[1])

    def test_simulation_integration(self):
        # A real (tiny) strategy run replicated over seeds: hit rates and
        # costs vary by seed but stay in a sane band.
        from repro.analysis.parameters import ScenarioParameters
        from repro.pdht.config import PdhtConfig
        from repro.pdht.strategies import SimulatedStrategy

        params = ScenarioParameters(
            num_peers=100, n_keys=150, replication=10,
            storage_per_peer=30, query_freq=1 / 5,
        )
        config = PdhtConfig(key_ttl=120.0, replication=10, walkers=8)

        def run(seed: int):
            strategy = SimulatedStrategy(params, config=config, seed=seed)
            report = strategy.run(40.0)
            return {
                "hit_rate": report.hit_rate,
                "msg_per_s": report.messages_per_second,
            }

        summary = replicate(run, seeds=[1, 2, 3])
        assert 0.0 < summary["hit_rate"].mean < 1.0
        assert summary["msg_per_s"].mean > 0
        assert summary["msg_per_s"].stdev > 0  # seeds actually differ
