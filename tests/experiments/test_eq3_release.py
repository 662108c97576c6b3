"""Planning's Eq. 3 arrays are gone before the kernels allocate, and a
pool's parent keeps them for its workers.

Eq. 3 (``analysis.zipf.rank_probabilities``) is planning input. When
``run_many`` runs the kernels in its own process it clears that cache
between cost resolution and the guide builds, the seam where calibration
substrates already die (``test_calibration_collect.py``), so no kernel
runs beside an n-key array it never reads. The kernels' distributions
take their CDF from a one-entry memo, which sums a miss from a fresh
Eq. 3 array when none is alive and does not cache it. A pooled
``run_many`` clears nothing: its forked workers sum their CDFs from the
arrays they inherit, and evaluate no Eq. 3 of their own.

Mutations run, each caught by the tests named: the release moved after
the kernels — both tests here; the memo re-caching Eq. 3 (summing a miss
from ``rank_probabilities``) —
``test_no_eq3_array_is_cached_at_the_first_kernel_round`` and
``tests/analysis/test_zipf.py``'s
``test_a_cdf_summed_without_a_cached_eq3_is_the_same``; the release made
before the fork as well — ``test_a_pooled_run_leaves_the_parent_cache_as_found``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.analysis import zipf
from repro.analysis.selection_model import selection_outcome
from repro.analysis.threshold import _solve
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import kernel
from repro.fastsim.compare import CALIBRATION_LIMIT
from repro.fastsim.parallel import FastSimJob, run_many
from repro.pdht.config import PdhtConfig

ALPHAS = (0.8, 1.2)


@pytest.fixture
def cold_planning():
    """No Eq. 3 array, planned outcome or CDF cached in this process, so
    planning evaluates Eq. 3 and the kernels sum their CDFs."""
    for cache in (zipf.rank_probabilities, _solve, selection_outcome):
        cache.cache_clear()
    zipf._last_cdf.clear()


@pytest.fixture
def eq3_at_first_round(monkeypatch):
    """Cached Eq. 3 arrays, and the run's pairs with one still alive,
    when the first kernel run starts."""
    seen = []
    run = kernel.FastSimKernel.run

    def spying_run(self, *args, **kwargs):
        if not seen:
            seen.append((
                zipf.rank_probabilities.cache_info().currsize,
                [pair for pair in _pairs() if pair in zipf._alive],
            ))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(kernel.FastSimKernel, "run", spying_run)
    return seen


def _scenarios():
    params = simulation_scenario(scale=0.3)
    assert params.num_peers > CALIBRATION_LIMIT  # analytical costs
    return [replace(params, alpha=alpha) for alpha in ALPHAS]


def _pairs():
    return [(params.n_keys, params.alpha) for params in _scenarios()]


def _jobs() -> list[FastSimJob]:
    """Two scenarios, two keyTtls each, on the default workload: two
    kernel units of two lanes."""
    jobs = []
    for params in _scenarios():
        config = PdhtConfig.from_scenario(params)
        for factor in (0.5, 2.0):
            jobs.append(FastSimJob(
                params=params, duration=40.0,
                config=config.with_ttl(config.key_ttl * factor),
            ))
    return jobs


def test_no_eq3_array_is_cached_at_the_first_kernel_round(
    cold_planning, eq3_at_first_round, telemetry
):
    reports = run_many(_jobs(), workers=1)
    assert len(reports) == 4
    counters = dict(telemetry.counters)
    # Planning cached one array per scenario, and it was gone (and not
    # re-cached by a CDF build) when the first kernel ran.
    assert counters["cache.zipf_probs.miss"] == len(ALPHAS)
    assert eq3_at_first_round == [(0, [])]
    # Every CDF after the release was summed from a fresh evaluation.
    builds = counters["zipf.cdf.builds"]
    assert 1 <= builds <= len(ALPHAS) + 1
    assert counters["zipf.eq3.evaluations"] == len(ALPHAS) + builds


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked worker inherits the parent's cache",
)
def test_a_pooled_run_leaves_the_parent_cache_as_found(
    cold_planning, telemetry
):
    jobs = _jobs()
    planned = [zipf.rank_probabilities(*pair) for pair in _pairs()]
    size = zipf.rank_probabilities.cache_info().currsize
    evaluated = dict(telemetry.counters)["zipf.eq3.evaluations"]
    run_many(jobs, workers=2)
    assert zipf.rank_probabilities.cache_info().currsize == size
    assert all(
        zipf.rank_probabilities(*pair) is array
        for pair, array in zip(_pairs(), planned)
    )
    counters = dict(telemetry.counters)
    # The workers' snapshots merged in: they summed CDFs, each from the
    # array it inherited, and evaluated no Eq. 3.
    assert counters["zipf.cdf.builds"] >= len(ALPHAS)
    assert counters["zipf.eq3.evaluations"] == evaluated
