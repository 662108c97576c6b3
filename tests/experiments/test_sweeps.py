"""Tests for the sweep grid axes and optimal cells."""

from __future__ import annotations

import math

import pytest

from repro.errors import ParameterError
from repro.experiments.execution import Execution
from repro.experiments.figures import FigureSeries
from repro.experiments.scenario import simulation_scenario
from repro.experiments.sweeps import (
    GridAxes,
    GridPoint,
    optimal_cells,
    sweep_grid,
)


class TestGridAxes:
    def test_default_axes_have_no_churn_dimension(self):
        axes = GridAxes()
        assert axes.size == 18
        labels = [p.label() for p in axes.points()]
        assert not any("av=" in label for label in labels)

    @pytest.mark.parametrize("axis", ["ttl_factors", "alphas", "query_freqs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_nan_inf_and_booleans_rejected(self, axis, value):
        # Through sweep_grid a NaN alpha died converting NaN to an
        # integer, an infinite fQry in numpy's Poisson draw, and a True
        # factor ran as 1.0.
        with pytest.raises(ParameterError, match=axis):
            GridAxes(**{axis: (value,)})

    def test_slice_label_drops_ttl_axis(self):
        point = GridPoint(2.0, 1.2, 1 / 600)
        assert point.label() == "2x|a=1.2|1/600"
        assert point.slice_label() == "a=1.2|1/600"


class TestOptimalCells:
    def _grid_figure(self, axes: GridAxes, costs: dict) -> FigureSeries:
        points = list(axes.points())
        return FigureSeries(
            name="synthetic grid",
            x_label="keyTtl|alpha|fQry",
            x_values=[p.label() for p in points],
            series={
                "hit rate": [0.5 for _ in points],
                "msg/s": [costs[(p.ttl_factor, p.alpha)] for p in points],
                "model msg/s": [1.0 for _ in points],
                "keyTtl [s]": [10.0 * p.ttl_factor for p in points],
            },
        )

    def test_argmin_per_slice(self):
        axes = GridAxes(
            ttl_factors=(0.5, 1.0, 2.0),
            alphas=(0.8, 1.2),
            query_freqs=(1 / 30,),
        )
        # alpha 0.8 is cheapest at factor 2.0, alpha 1.2 at factor 0.5.
        costs = {
            (0.5, 0.8): 30.0, (1.0, 0.8): 20.0, (2.0, 0.8): 10.0,
            (0.5, 1.2): 5.0, (1.0, 1.2): 20.0, (2.0, 1.2): 30.0,
        }
        derived = optimal_cells(self._grid_figure(axes, costs), axes)
        assert len(derived.x_values) == 2  # one per (alpha, fQry) slice
        best = dict(zip(derived.x_values, derived.series_of("best keyTtl factor")))
        assert best["a=0.8|1/30"] == 2.0
        assert best["a=1.2|1/30"] == 0.5
        mins = dict(zip(derived.x_values, derived.series_of("min msg/s")))
        assert mins["a=0.8|1/30"] == 10.0
        assert mins["a=1.2|1/30"] == 5.0

    def test_mismatched_axes_rejected(self):
        axes = GridAxes(
            ttl_factors=(0.5, 1.0), alphas=(1.2,), query_freqs=(1 / 30,)
        )
        grid = self._grid_figure(
            axes, {(0.5, 1.2): 1.0, (1.0, 1.2): 2.0}
        )
        with pytest.raises(ParameterError, match="cells"):
            optimal_cells(grid, GridAxes())


class TestWorkloadAxis:
    """GridAxes.workloads (ISSUE 5): non-stationary cells in the grid."""

    def test_workload_axis_multiplies_the_grid(self):
        axes = GridAxes(workloads=("stationary", "rank-swap"))
        assert axes.size == 36
        labels = [p.label() for p in axes.points()]
        assert sum("w=rank-swap" in label for label in labels) == 18
        # Stationary cells keep their historical labels.
        assert not any("w=stationary" in label for label in labels)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ParameterError, match="workload"):
            GridAxes(workloads=("nope",))
        with pytest.raises(ParameterError, match="non-empty"):
            GridAxes(workloads=())

    def test_slice_label_keeps_the_workload(self):
        point = GridPoint(2.0, 1.2, 1 / 600, workload="gradual-drift")
        assert point.slice_label() == "a=1.2|1/600|w=gradual-drift"

    def test_non_stationary_cells_run_the_model(self):
        axes = GridAxes(
            ttl_factors=(1.0,),
            alphas=(1.2,),
            query_freqs=(1 / 30,),
            workloads=("stationary", "rank-swap"),
        )
        fig = sweep_grid(
            axes,
            scenario=simulation_scenario(scale=0.02),
            duration=60.0,
        )
        assert len(fig.x_values) == 2
        assert "w=rank-swap" in fig.x_values[1]
        stationary, swapped = fig.series_of("hit rate")
        assert 0 < stationary <= 1 and 0 < swapped <= 1
        # The mid-run swap costs hits relative to the stationary cell.
        assert swapped < stationary
        derived = optimal_cells(fig, axes)
        assert len(derived.x_values) == 2  # workload splits the slice

    def test_workload_cells_deterministic_across_jobs(self):
        axes = GridAxes(
            ttl_factors=(1.0,),
            alphas=(1.2,),
            query_freqs=(1 / 30,),
            workloads=("gradual-drift",),
        )
        scenario = simulation_scenario(scale=0.02)
        sequential = sweep_grid(axes, scenario=scenario, duration=40.0)
        parallel = sweep_grid(
            axes, scenario=scenario, duration=40.0,
            execution=Execution("vectorized", jobs=2),
        )
        assert parallel.series == sequential.series


class TestParallelSweep:
    """sweep_grid worker counts; jobs parity lives in the execution-path
    matrix (tests/experiments/test_execution_paths.py)."""

    def _axes(self):
        return GridAxes(
            ttl_factors=(0.5, 1.0), alphas=(1.2,), query_freqs=(1 / 30,)
        )

    def test_invalid_jobs_rejected(self):
        import pytest as _pytest

        from repro.errors import ParameterError as _ParameterError

        with _pytest.raises(_ParameterError):
            sweep_grid(
                self._axes(), duration=30.0,
                execution=Execution("vectorized", jobs=-1),
            )
