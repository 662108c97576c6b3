"""Tests for multi-seed statistics."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments.stats import summarise


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
        assert abs(summary.mean - 10) < summary.ci_halfwidth

    def test_single_sample_has_infinite_ci(self):
        summary = summarise("m", [5.0])
        assert summary.ci_halfwidth == float("inf")
        assert summary.mean == 5.0

    def test_ci_shrinks_with_samples(self):
        few = summarise("m", [1.0, 2.0, 3.0])
        many = summarise("m", [1.0, 2.0, 3.0] * 10)
        assert many.ci_halfwidth < few.ci_halfwidth

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            summarise("m", [])
