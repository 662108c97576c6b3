"""State dtype policies (repro.fastsim.precision).

The contract of ISSUE 8's dtype slimming: ``wide`` (the default) is the
float64/int64 layout every pinned capture was recorded under — selecting
it explicitly must not move a bit — while ``slim`` halves the state
arrays to float32/uint32 and may only drift within the same 5% bars the
cross-engine gates enforce. Expiry and counter exactness hold below 2^24
rounds (float32's exact-integer range) and 2^32 tallies, and the kernel
refuses a slim run that could reach either (``TestSlimRange``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import (
    PRECISION_NAMES,
    SLIM,
    WIDE,
    FastSimKernel,
    StatePrecision,
    resolve_precision,
    run_fastsim,
)
from repro.fastsim.precision import (
    SLIM_EXACT_ROUNDS,
    SLIM_EXACT_TALLIES,
    check_slim_range,
)
from repro.pdht.config import PdhtConfig

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


class TestResolvePrecision:
    def test_none_is_wide(self):
        assert resolve_precision(None) is WIDE

    def test_names_resolve(self):
        assert resolve_precision("wide") is WIDE
        assert resolve_precision("slim") is SLIM

    def test_policy_passthrough(self):
        assert resolve_precision(WIDE) is WIDE
        assert resolve_precision(SLIM) is SLIM

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            resolve_precision("float16")

    def test_names_catalogue(self):
        assert set(PRECISION_NAMES) == {"wide", "slim"}

    def test_policies_are_picklable_values(self):
        import pickle

        assert pickle.loads(pickle.dumps(SLIM)) == SLIM
        assert StatePrecision("slim", "float32", "uint32") == SLIM


class TestStateDtypes:
    def test_default_state_is_wide(self, params, config):
        kernel = FastSimKernel(params, config=config, seed=SEED)
        assert kernel.precision is WIDE
        assert kernel.state.expires_at.dtype == np.float64
        assert kernel.state.key_hits.dtype == np.int64

    def test_slim_state_narrows(self, params, config):
        kernel = FastSimKernel(
            params, config=config, seed=SEED, precision="slim"
        )
        assert kernel.precision is SLIM
        assert kernel.state.expires_at.dtype == np.float32
        assert kernel.state.key_hits.dtype == np.uint32

    def test_dtype_properties(self):
        assert WIDE.np_float == np.dtype(np.float64)
        assert WIDE.np_counter == np.dtype(np.int64)
        assert SLIM.np_float == np.dtype(np.float32)
        assert SLIM.np_counter == np.dtype(np.uint32)


class TestSlimRange:
    """``slim`` is exact below 2^24 rounds (expiries, ``key_ttl``
    included) and 2^32 tallies; a run that could reach either is refused
    before its first round."""

    def test_guard_boundaries(self):
        last = SLIM_EXACT_ROUNDS - 11
        check_slim_range(SLIM, last, 10.0, SLIM_EXACT_TALLIES - 1)
        check_slim_range(SLIM, SLIM_EXACT_ROUNDS - 1, float("inf"), 0)
        with pytest.raises(ParameterError, match="expiries"):
            check_slim_range(SLIM, last + 1, 10.0, 0)
        with pytest.raises(ParameterError, match="expiries"):
            check_slim_range(SLIM, SLIM_EXACT_ROUNDS, float("inf"), 0)
        with pytest.raises(ParameterError, match="tallies"):
            check_slim_range(SLIM, last, 10.0, SLIM_EXACT_TALLIES)
        check_slim_range(WIDE, SLIM_EXACT_ROUNDS, 10.0, SLIM_EXACT_TALLIES)

    @staticmethod
    def slim_kernel(params, config, now):
        kernel = FastSimKernel(params, config=config, seed=SEED, precision="slim")
        kernel.now = float(now)
        return kernel

    def test_run_refuses_expiry_at_two_to_the_24(self, params, config):
        ttl = 62
        config = dataclasses.replace(config, key_ttl=float(ttl))
        # One more round ends at now + 1; its refreshes expire at
        # now + 1 + ttl.
        largest = SLIM_EXACT_ROUNDS - 2 - ttl
        kernel = self.slim_kernel(params, config, largest)
        report = kernel.run(1.0)
        assert report.queries > 0 and report.index_hits + report.answered > 0
        assert kernel.state.expires_at.max() == SLIM_EXACT_ROUNDS - 1

        kernel = self.slim_kernel(params, config, largest + 1)
        before = kernel.state.expires_at.copy()
        with pytest.raises(ParameterError, match="expiries"):
            kernel.run(1.0)
        assert kernel.now == largest + 1
        assert np.array_equal(kernel.state.expires_at, before)

    def test_run_refuses_two_to_the_32_queries(self, params, config, monkeypatch):
        kernel = self.slim_kernel(params, config, 0)
        first = kernel.run(1.0).queries
        assert first > 0
        # Tallies persist across runs: the second run's budget is what the
        # first one left.
        monkeypatch.setattr(
            kernel.workload,
            "fixed_counts",
            lambda start, rounds: np.full(rounds, SLIM_EXACT_TALLIES - first),
        )
        with pytest.raises(ParameterError, match="tallies"):
            kernel.run(1.0)
        assert kernel.now == 1.0

    def test_wide_is_not_limited(self, params, config):
        kernel = FastSimKernel(params, config=config, seed=SEED)
        kernel.now = float(SLIM_EXACT_ROUNDS)
        assert kernel.run(1.0).queries > 0


@pytest.mark.parametrize(
    "strategy", ("noIndex", "indexAll", "partialIdeal", "partialSelection")
)
def test_explicit_wide_bit_identical_to_pinned(strategy, params, config):
    """``precision="wide"`` IS the historical layout — same pinned
    reports the default path is held to (tests/fastsim/test_pinned.py)."""
    report = run_fastsim(
        params,
        config=config,
        duration=DURATION,
        strategy=strategy,
        seed=SEED,
        window=WINDOW,
        precision="wide",
    )
    pinned = PINNED[strategy]
    assert report.queries == pinned["queries"]
    assert report.answered == pinned["answered"]
    assert report.index_hits == pinned["index_hits"]
    assert report.total_messages == pinned["total_messages"]
    assert [
        list(sample) for sample in report.hit_rate_series
    ] == pinned["hit_rate_series"]


def test_wide_equals_default_exactly(params, config):
    default = run_fastsim(
        params, config=config, duration=DURATION, seed=SEED, window=WINDOW
    ).to_dict()
    wide = run_fastsim(
        params,
        config=config,
        duration=DURATION,
        seed=SEED,
        window=WINDOW,
        precision=WIDE,
    ).to_dict()
    default.pop("elapsed_seconds")
    wide.pop("elapsed_seconds")
    assert default == wide


@pytest.mark.parametrize("strategy", ("partialSelection", "indexAll"))
def test_slim_within_five_percent_of_wide(strategy, params, config):
    """Slim narrows storage, not semantics: the RNG streams are shared
    with the wide path, so at tier-1 scale the aggregates track wide far
    inside the 5% cross-engine bars."""
    runs = {}
    for precision in ("wide", "slim"):
        runs[precision] = run_fastsim(
            params,
            config=config,
            duration=DURATION,
            strategy=strategy,
            seed=SEED,
            precision=precision,
        )
    wide, slim = runs["wide"], runs["slim"]
    assert slim.queries == wide.queries
    assert slim.hit_rate == pytest.approx(wide.hit_rate, rel=0.05)
    assert slim.total_messages == pytest.approx(
        wide.total_messages, rel=0.05
    )
    assert slim.final_index_size == pytest.approx(
        wide.final_index_size, rel=0.05
    )
