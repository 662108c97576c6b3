"""Trailing-window semantics: both engines flush the partial tail window.

ISSUE 4 satellite: ``WindowRecorder`` (kernel) and the event driver used
to silently drop the final ``duration % window`` rounds from
``hit_rate_series``, so the tail queries vanished from the adaptivity
figures. Both engines now flush the partial window identically.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.errors import ParameterError
from repro.fastsim.metrics import WindowRecorder
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy


class TestWindowRecorder:
    def test_flush_emits_partial_tail(self):
        recorder = WindowRecorder(10.0)
        for elapsed in range(1, 26):  # 25 rounds, window 10
            recorder.record(4, 2)
            recorder.maybe_close(float(elapsed), lambda: 7)
        recorder.flush(25.0, lambda: 7)
        times = [t for t, _ in recorder.hit_rate_series]
        assert times == [10.0, 20.0, 25.0]
        # The tail window still carries its own 5 rounds' rate.
        assert recorder.hit_rate_series[-1][1] == pytest.approx(0.5)
        assert recorder.index_size_series[-1] == (25.0, 7)

    def test_flush_noop_on_exact_boundary(self):
        recorder = WindowRecorder(10.0)
        for elapsed in range(1, 21):
            recorder.record(1, 1)
            recorder.maybe_close(float(elapsed), lambda: 3)
        recorder.flush(20.0, lambda: 3)
        assert [t for t, _ in recorder.hit_rate_series] == [10.0, 20.0]

    def test_flush_noop_when_disabled(self):
        recorder = WindowRecorder(0.0)
        recorder.record(5, 1)
        recorder.flush(12.0, lambda: 1)
        assert recorder.hit_rate_series == []

    def test_empty_tail_window_still_flushes(self):
        # A tail with zero queries records rate 0.0 — same convention as
        # maybe_close — so the series still marks the simulated time.
        recorder = WindowRecorder(10.0)
        recorder.maybe_close(10.0, lambda: 2)
        recorder.flush(15.0, lambda: 2)
        assert recorder.hit_rate_series[-1] == (15.0, 0.0)


class TestCrossEngineTailWindow:
    """duration % window != 0: both engines report the same window grid,
    tail sample included."""

    SCALE = 0.02
    DURATION = 130.0  # 130 % 50 = 30 tail rounds
    WINDOW = 50.0

    @pytest.fixture(scope="class")
    def reports(self):
        params = simulation_scenario(scale=self.SCALE)
        config = PdhtConfig.from_scenario(params)
        event = SimulatedStrategy(params, config=config, seed=1).run(
            self.DURATION, window=self.WINDOW
        )
        fast = run_fastsim(
            params, config=config, duration=self.DURATION, seed=1,
            window=self.WINDOW,
        )
        return event, fast

    def test_tail_window_present_in_both(self, reports):
        event, fast = reports
        assert [t for t, _ in event.hit_rate_series] == [50.0, 100.0, 130.0]
        assert [t for t, _ in fast.hit_rate_series] == [50.0, 100.0, 130.0]
        assert len(event.index_size_series) == 3
        assert len(fast.index_size_series) == 3

    def test_no_queries_lost_from_series(self, reports):
        # The windowed query population must cover every query the run
        # reports — the tail is no longer dropped. Both engines compute
        # window rates over the same per-window query counts, so their
        # trajectories stay comparable (same bound as the aggregate
        # tests/properties agreement suite uses for series).
        event, fast = reports
        for event_sample, fast_sample in zip(
            event.hit_rate_series, fast.hit_rate_series
        ):
            assert fast_sample[1] == pytest.approx(event_sample[1], abs=0.10)


@pytest.mark.parametrize("window", [-5.0, math.nan, math.inf, True])
@pytest.mark.parametrize("engine", ["event", "vectorized"])
def test_a_window_that_is_not_a_finite_count_of_rounds_is_an_error(
    engine, window
):
    # Both engines share one recorder, so they agree on every window; one
    # that is not a finite count of rounds is an error on both, never a
    # silent "no windows" (or, at inf, one window on a single engine).
    params = simulation_scenario(scale=0.02)
    with pytest.raises(ParameterError, match="window"):
        if engine == "event":
            SimulatedStrategy(params, seed=0).run(20.0, window=window)
        else:
            run_fastsim(params, duration=20.0, seed=0, window=window)


@pytest.mark.parametrize(
    "duration, window, windows", [(100.0, 100.0 / 12, 12), (5.0, 0.5, 5)],
    ids=["twelfths", "half-round"],
)
@pytest.mark.parametrize("engine", ["event", "vectorized"])
def test_window_times_strictly_increase_to_the_duration(
    engine, duration, window, windows
):
    # 100/12 summed twelve times falls short of 100, and a window under a
    # round closes at most once a round: either way the run's last round
    # closes a window, and the flush must not close another after it.
    params = simulation_scenario(scale=0.02)
    if engine == "event":
        report = SimulatedStrategy(params, seed=0).run(duration, window=window)
    else:
        report = run_fastsim(params, duration=duration, seed=0, window=window)
    for series in (report.hit_rate_series, report.index_size_series):
        times = [t for t, _ in series]
        assert len(times) == windows and times[-1] == duration
        assert all(a < b for a, b in zip(times, times[1:]))
