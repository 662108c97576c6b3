"""Tests for the adaptivity-tracking experiment and the `workload`
experiment parameter (ISSUE 5)."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments.api import ExperimentParams, get_spec, run
from repro.experiments.execution import Execution
from repro.experiments.figures import adaptivity_lag_table, adaptivity_tracking
from repro.experiments.scenario import simulation_scenario


class TestWorkloadParameter:
    def test_spec_accepts_workload(self):
        spec = get_spec("adaptivity-tracking")
        assert spec.engines == ("vectorized", "event")
        assert "workload" in spec.accepts
        assert "workload" in get_spec("sweep").accepts
        assert "workload" in get_spec("sweep-optimal").accepts

    def test_unknown_workload_rejected_up_front(self):
        with pytest.raises(ParameterError, match="unknown workload"):
            ExperimentParams(workload="nope")
        with pytest.raises(ParameterError, match="unknown workload"):
            run("adaptivity-tracking", workload="nope")

    def test_trace_prefix_passes_validation(self):
        # The path is resolved lazily at build time, not at validation.
        params = ExperimentParams(workload="trace:/tmp/whatever.jsonl")
        assert params.workload.startswith("trace:")

    def test_runner_exposes_the_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        assert "adaptivity-tracking" in capsys.readouterr().out
        assert (
            main(
                [
                    "adaptivity-tracking",
                    "--scale", "0.02",
                    "--duration", "120",
                    "--workload", "rank-swap",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "selection [rank-swap]" in out


class TestAdaptivityTracking:
    def test_single_model_run(self):
        result = run(
            "adaptivity-tracking",
            scale=0.02,
            duration=120.0,
            workload="flash-crowd",
        )
        fig = result.figure
        assert set(fig.series) == {
            "selection [flash-crowd]",
            "oracle [flash-crowd]",
        }
        assert "convergence lag" in fig.notes
        assert result.parameters["workload"] == "flash-crowd"

    def test_default_sweeps_all_tracking_models(self):
        fig = adaptivity_tracking(
            params=simulation_scenario(scale=0.02),
            duration=120.0,
            window=30.0,
        )
        for name in ("rank-swap", "gradual-drift", "flash-crowd", "diurnal"):
            assert f"selection [{name}]" in fig.series
            assert f"oracle [{name}]" in fig.series
            assert f"{name}=" in fig.notes
        lengths = {len(values) for values in fig.series.values()}
        assert lengths == {len(fig.x_values)}

    def test_event_engine_supported(self):
        fig = adaptivity_tracking(
            params=simulation_scenario(scale=0.02),
            duration=60.0,
            window=20.0,
            workload="rank-swap",
            execution=Execution("event"),
        )
        assert "selection [rank-swap]" in fig.series

    def test_oracle_outruns_selection_after_the_shift(self):
        """The point of the figure: right after a rank swap the oracle
        (rank-based, adapts instantly) beats the TTL selection index."""
        fig = adaptivity_tracking(
            params=simulation_scenario(scale=0.02),
            duration=200.0,
            window=20.0,
            shift_at=100.0,
            workload="rank-swap",
        )
        times = [float(t) for t in fig.x_values]
        selection = fig.series_of("selection [rank-swap]")
        oracle = fig.series_of("oracle [rank-swap]")
        post = [i for i, t in enumerate(times) if 100.0 < t <= 140.0]
        assert post, fig.x_values
        first = post[0]
        assert selection[first] < oracle[first]

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            adaptivity_tracking(duration=0.0)
        with pytest.raises(ParameterError):
            adaptivity_tracking(duration=100.0, window=0.0)
        # A shift at or past the run's end never happens: rejected, as
        # ``adaptivity`` rejects it, rather than reported as a lag.
        for figure in (adaptivity_tracking, adaptivity_lag_table):
            for shift_at in (0.0, 100.0, 170.0):
                with pytest.raises(ParameterError, match="shift_at must be"):
                    figure(duration=100.0, shift_at=shift_at)
