"""Pinned seeded kernel outputs: the round-loop batching must not move a bit.

The ISSUE 4 batching rewrote the kernel's query sampling (whole
shift-free segments drawn in one ``sample_ranks`` call, split by
``cumsum``); its contract is that seeded single-process results are
*bit-identical* to the historical per-round draws. The fixture
``data/pinned_reports.json`` was captured from the pre-batching kernel
(PR 3, commit 96be0eb) on the Table-1/50 scenario — every strategy, plus
the shuffled and flash-crowd shifted workloads whose permutation draws
interleave with the query stream. Exact equality, not approx: any future
round-loop change that reorders an RNG stream fails here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.pdht.config import PdhtConfig
from repro.workloads import FlashCrowd, RankSwap

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_reports.json").read_text()
)

SCALE = 0.02
DURATION = 120.0
SEED = 7
WINDOW = 30.0


@pytest.fixture(scope="module")
def params():
    return simulation_scenario(scale=SCALE)


@pytest.fixture(scope="module")
def config(params):
    return PdhtConfig.from_scenario(params)


def _assert_matches(report, pinned: dict) -> None:
    assert report.queries == pinned["queries"]
    assert report.answered == pinned["answered"]
    assert report.index_hits == pinned["index_hits"]
    assert report.insertions == pinned["insertions"]
    assert report.reinsertions == pinned["reinsertions"]
    assert report.cold_misses == pinned["cold_misses"]
    assert report.gateway_discoveries == pinned["gateway_discoveries"]
    assert report.final_index_size == pinned["final_index_size"]
    assert report.total_messages == pinned["total_messages"]
    assert {
        category.value: total
        for category, total in report.messages_by_category.items()
    } == pinned["messages_by_category"]
    assert [
        list(sample) for sample in report.hit_rate_series
    ] == pinned["hit_rate_series"]


@pytest.mark.parametrize(
    "strategy", ("noIndex", "indexAll", "partialIdeal", "partialSelection")
)
def test_strategies_bit_identical_to_pre_batching_kernel(
    strategy, params, config
):
    report = run_fastsim(
        params,
        config=config,
        duration=DURATION,
        strategy=strategy,
        seed=SEED,
        window=WINDOW,
    )
    _assert_matches(report, PINNED[strategy])


def test_shuffled_workload_bit_identical(params, config):
    """The shift as an experiment names it — a ``Cell`` with its one
    ``workload`` datum, turned into a kernel job."""
    from repro.experiments.execution import Cell, CellWorkload

    cell = Cell(
        params, config, DURATION, seed=SEED, window=WINDOW,
        workload=CellWorkload(RankSwap(60.0), "queries-shifted", (99,)),
    )
    _assert_matches(cell.fastsim_job().run(), PINNED["shuffled"])


def test_rank_swap_model_bit_identical_to_shuffled_pin(params, config):
    """The `RankSwap` workload model reproduces the pre-model shift path
    bit for bit — the pin was captured from the historical shuffled
    workload class (now the oracle in
    ``tests/workloads/test_legacy_equivalence.py``)."""
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    workload = RankSwap(shift_time=60.0).build(
        zipf, np.random.default_rng(np.random.SeedSequence(99))
    )
    report = run_fastsim(
        params,
        config=config,
        duration=DURATION,
        seed=SEED,
        workload=workload,
        window=WINDOW,
    )
    _assert_matches(report, PINNED["shuffled"])


def test_flash_crowd_workload_bit_identical(params, config):
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    workload = FlashCrowd(60.0).build(
        zipf, np.random.default_rng(np.random.SeedSequence(99))
    )
    report = run_fastsim(
        params,
        config=config,
        duration=DURATION,
        seed=SEED,
        workload=workload,
        window=WINDOW,
    )
    _assert_matches(report, PINNED["flashcrowd"])
