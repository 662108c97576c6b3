"""Pinned seeded kernel outputs: the round-loop batching must not move a bit.

The ISSUE 4 batching rewrote the kernel's query sampling (whole
shift-free segments drawn in one ``sample_ranks`` call, split by
``cumsum``); its contract is that seeded single-process results are
*bit-identical* to the historical per-round draws. The fixture
``data/pinned_reports.json`` was captured from the pre-batching kernel
(PR 3, commit 96be0eb) on the Table-1/50 scenario — every strategy, plus
the shuffled and flash-crowd shifted workloads whose permutation draws
interleave with the query stream. The two ``*-churn`` entries
(partialSelection and indexAll under churn, with explicit costs whose
turnover and walk-failure rates are above zero, so partialSelection draws
turnover uniforms and resolutions) were captured from the
round-by-round kernel, before it ran spans of rounds. Exact equality, not
approx: any future round-loop change that reorders an RNG stream fails
here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.strategies import strategy_setup
from repro.analysis.zipf import ZipfDistribution
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.kernel import PerOpCosts
from repro.net.churn import ChurnConfig
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


#: Explicit churn and costs for the ``*-churn`` pins, so no calibration
#: runs: a turnover miss rate and a walk failure rate above zero make the
#: runs draw both the turnover uniforms and the resolution draws.
CHURN = ChurnConfig(mean_session=240.0, mean_offline=120.0)


@pytest.mark.parametrize("strategy", ("indexAll", "partialSelection"))
def test_churned_runs_bit_identical(strategy, params, config):
    """Under churn every span is one round: these pins were recorded
    before the kernel ran spans of rounds."""
    members = strategy_setup(params, config, strategy).num_members
    churn_costs = ChurnOpCosts(
        availability=CHURN.availability, lookup=2.3, miss_lookup=2.9,
        hit_flood=7.1, miss_flood=9.7, insert_flood=8.3, resolved_walk=41.5,
        failed_walk=133.7, walk_failure=0.15, hit_flood_fraction=0.2,
        turnover_miss=0.1, maintenance_per_round=12.9,
        num_active_peers=members,
    )
    report = run_fastsim(
        params,
        config=config,
        duration=DURATION,
        strategy=strategy,
        seed=SEED,
        churn=CHURN,
        costs=PerOpCosts.analytical(params, config, num_active_peers=members),
        churn_costs=churn_costs,
        window=WINDOW,
    )
    pinned = PINNED[f"{strategy}-churn"]
    _assert_matches(report, pinned)
    assert report.unresolved == pinned["unresolved"]
    assert report.churn_transitions == pinned["churn_transitions"]


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
