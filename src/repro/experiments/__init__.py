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

from repro._exports import lazy_exports

# Names resolve on first use, so ``import repro.experiments.runner`` loads
# the registry and nothing that computes (the registry is filled when
# ``repro.experiments.api`` loads, whichever name asks for it first).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.scenario": (
        "paper_scenario",
        "simulation_scenario",
        "fastsim_scenario",
        "resolve_engine",
        "SIMULATION_SCALE",
        "FASTSIM_SCALE",
        "ENGINES",
        "DEFAULT_ENGINE",
    ),
    "repro.experiments.execution": ("Cell", "Execution"),
    "repro.experiments.figures": (
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
    ),
    "repro.experiments.tables": ("TableSeries", "table1_rows", "table1_series"),
    "repro.experiments.reporting": ("format_series", "format_table"),
    "repro.experiments.stats": ("MetricSummary", "summarise"),
    "repro.experiments.export": (
        "figure_to_csv",
        "figure_to_json",
        "load_figure_json",
        "save_figure",
        "result_to_json",
        "load_result_json",
        "save_result",
    ),
    "repro.experiments.api": (
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
    ),
    "repro.experiments.sweeps": (
        "GridAxes",
        "GridPoint",
        "optimal_cells",
        "sweep_grid",
    ),
})
