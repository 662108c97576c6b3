"""Multi-seed experiment statistics.

A single simulation run is one sample; credible comparisons need means
and confidence intervals across seeds. :func:`summarise` gives one
metric's Student-t confidence interval (scipy); ``api.run(replicates=N)``
is what runs the seeds and calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ParameterError

__all__ = ["CONFIDENCE", "MetricSummary", "summarise"]

#: The confidence level of every interval :func:`summarise` gives.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class MetricSummary:
    """Mean, spread and confidence half-width of one metric."""

    name: str
    samples: tuple[float, ...]
    mean: float
    stdev: float
    ci_halfwidth: float
    confidence: float


def _t_critical(df: int) -> float:
    from scipy import stats as scipy_stats

    return float(scipy_stats.t.ppf(0.5 + CONFIDENCE / 2.0, df))


def summarise(name: str, samples: Sequence[float]) -> MetricSummary:
    """Student-t summary of one metric's samples at :data:`CONFIDENCE`."""
    if not samples:
        raise ParameterError(f"metric {name!r} has no samples")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return MetricSummary(
            name=name,
            samples=tuple(samples),
            mean=mean,
            stdev=0.0,
            ci_halfwidth=float("inf"),
            confidence=CONFIDENCE,
        )
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    stdev = math.sqrt(variance)
    halfwidth = _t_critical(n - 1) * stdev / math.sqrt(n)
    return MetricSummary(
        name=name,
        samples=tuple(samples),
        mean=mean,
        stdev=stdev,
        ci_halfwidth=halfwidth,
        confidence=CONFIDENCE,
    )
