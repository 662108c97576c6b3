"""Experiment harness: regenerates every table and figure of the paper.

The public surface is the **Experiment API** (:mod:`repro.experiments.api`):
every experiment is a registered :class:`ExperimentSpec` with typed
parameters and capability-gated engines, executed via :func:`run` into an
:class:`ExperimentResult` that carries the figure payload plus provenance
(scenario, engine, seed, wall-clock, version)::

    from repro.experiments import run_experiment, experiment_names

    print(experiment_names())            # table1, fig1..fig4, ..., sweep
    result = run_experiment("sim", engine="vectorized", duration=120.0)
    print(result.render())
    result.save("out/", fmt="json")      # provenance-stamped export

From the command line::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner all
    python -m repro.experiments.runner sweep --engine vectorized \\
        --format json --output out/

The underlying data generators remain importable directly
(:mod:`~repro.experiments.figures`, :mod:`~repro.experiments.tables`,
:mod:`~repro.experiments.sweeps`); the simulated ones take one
:class:`~repro.experiments.execution.Execution` argument for engine
and workers.
"""

from repro.experiments.scenario import (
    paper_scenario,
    simulation_scenario,
    fastsim_scenario,
    resolve_engine,
    SIMULATION_SCALE,
    FASTSIM_SCALE,
    ENGINES,
    DEFAULT_ENGINE,
)
from repro.experiments.execution import Cell, Execution
from repro.experiments.figures import (
    FigureSeries,
    figure1,
    figure2,
    figure3,
    figure4,
    keyttl_sensitivity,
    heuristic_vs_optimal,
    simulation_comparison,
    simulated_figure1,
    adaptivity_experiment,
    adaptivity_tracking,
    adaptivity_lag_table,
    churn_experiment,
    staleness_experiment,
)
from repro.experiments.tables import TableSeries, table1_rows, table1_series
from repro.experiments.reporting import format_series, format_table
from repro.experiments.stats import MetricSummary, summarise
from repro.experiments.export import (
    figure_to_csv,
    figure_to_json,
    load_figure_json,
    save_figure,
    result_to_json,
    load_result_json,
    save_result,
)
from repro.experiments.api import (
    ANALYTICAL,
    SIMULATED,
    ExperimentParams,
    ExperimentSpec,
    ExperimentResult,
    REGISTRY,
    experiment,
    get_spec,
    experiment_names,
    iter_specs,
)
from repro.experiments.api import run as run_experiment
from repro.experiments.sweeps import (
    GridAxes,
    GridPoint,
    optimal_cells,
    sweep_grid,
)

__all__ = [
    "paper_scenario",
    "simulation_scenario",
    "fastsim_scenario",
    "resolve_engine",
    "SIMULATION_SCALE",
    "FASTSIM_SCALE",
    "ENGINES",
    "DEFAULT_ENGINE",
    "Cell",
    "Execution",
    "FigureSeries",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "keyttl_sensitivity",
    "heuristic_vs_optimal",
    "simulation_comparison",
    "simulated_figure1",
    "adaptivity_experiment",
    "adaptivity_tracking",
    "adaptivity_lag_table",
    "churn_experiment",
    "staleness_experiment",
    "TableSeries",
    "table1_rows",
    "table1_series",
    "format_series",
    "format_table",
    "MetricSummary",
    "summarise",
    "figure_to_csv",
    "figure_to_json",
    "load_figure_json",
    "save_figure",
    "result_to_json",
    "load_result_json",
    "save_result",
    "ANALYTICAL",
    "SIMULATED",
    "ExperimentParams",
    "ExperimentSpec",
    "ExperimentResult",
    "REGISTRY",
    "experiment",
    "get_spec",
    "experiment_names",
    "iter_specs",
    "run_experiment",
    "GridAxes",
    "GridPoint",
    "optimal_cells",
    "sweep_grid",
]
