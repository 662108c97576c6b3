"""Paper-scale parameter sweeps on the vectorized fastsim kernel.

The ROADMAP's sweep item: exploit the batch kernel for keyTtl x alpha x
fQry grids at paper scale (Table 1, 20,000 peers) — the event engine
needs minutes per cell there, the kernel tens of milliseconds. The grid
is expressed in the Experiment API (``run("sweep", ...)``) so its results
render, export and carry provenance like any figure. Every cell runs
without churn.

Programmatic use::

    from repro.experiments.sweeps import GridAxes, sweep_grid, optimal_cells

    axes = GridAxes(ttl_factors=(0.5, 2.0), alphas=(1.2,),
                    query_freqs=(1/30, 1/600))
    fig = sweep_grid(axes, execution=Execution("vectorized", jobs=4))
    print(fig.render())
    print(optimal_cells(fig, axes).render())   # argmin cost per slice

Each grid cell runs the selection algorithm as one
:class:`~repro.experiments.execution.Cell`, with ``keyTtl`` scaled off
the analytical ``1/fMin`` for that cell's scenario; the ``Execution``
hands the cells to :func:`repro.fastsim.parallel.run_many`, where the
cells that differ only in keyTtl run as the lanes of one kernel. Each
reports the measured hit rate and msg/s next to the Eq. 16 model
prediction at the same point.
:func:`optimal_cells` derives the empirical optimal-TTL surface from the
raw grid: for every (alpha, fQry) slice, the TTL factor
minimising measured total cost — the measured counterpart of
:func:`repro.analysis.optimal.optimal_key_ttl`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional

from repro import obs
from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError, require_finite
from repro.experiments.figures import FigureSeries
from repro.experiments.reporting import format_period
from repro.experiments.scenario import paper_scenario

if TYPE_CHECKING:
    from repro.experiments.execution import Execution

__all__ = ["GridAxes", "GridPoint", "sweep_grid", "optimal_cells"]


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep grid."""

    ttl_factor: float
    alpha: float
    query_freq: float
    workload: str = "stationary"

    def label(self) -> str:
        text = (
            f"{self.ttl_factor:g}x|a={self.alpha:g}|"
            f"{format_period(self.query_freq)}"
        )
        if self.workload != "stationary":
            text += f"|w={self.workload}"
        return text

    def slice_label(self) -> str:
        """The (workload, alpha, fQry) slice this cell belongs to
        (everything but the swept TTL axis)."""
        text = f"a={self.alpha:g}|{format_period(self.query_freq)}"
        if self.workload != "stationary":
            text += f"|w={self.workload}"
        return text


@dataclass(frozen=True)
class GridAxes:
    """The swept axes: keyTtl factors x alphas x query freqs x workloads.

    Defaults cover the paper's interesting ranges: TTLs around the
    analytical ``1/fMin`` choice, the Zipf exponent above and below the
    paper's 1.2 and query frequencies spanning Fig. 1's sweep.
    """

    ttl_factors: tuple[float, ...] = (0.5, 1.0, 2.0)
    alphas: tuple[float, ...] = (0.8, 1.2)
    query_freqs: tuple[float, ...] = (1 / 30, 1 / 600, 1 / 7200)
    #: Workload-model presets (repro.workloads); non-stationary cells run
    #: the selection algorithm against that model's query stream.
    workloads: tuple[str, ...] = ("stationary",)

    def __post_init__(self) -> None:
        for name, values in (
            ("ttl_factors", self.ttl_factors),
            ("alphas", self.alphas),
            ("query_freqs", self.query_freqs),
        ):
            if not values:
                raise ParameterError(f"{name} must be non-empty")
            if any(v <= 0 for v in values):
                raise ParameterError(f"{name} must be > 0, got {values}")
            for value in values:
                require_finite(name, value, 0.0)
        if not self.workloads:
            raise ParameterError("workloads must be non-empty")
        from repro.workloads import validate_workload_name

        for workload in self.workloads:
            validate_workload_name(workload)

    @property
    def size(self) -> int:
        return (
            len(self.ttl_factors)
            * len(self.alphas)
            * len(self.query_freqs)
            * len(self.workloads)
        )

    def points(self) -> Iterator[GridPoint]:
        """Row-major iteration: fQry fastest, then alpha, then keyTtl,
        then workload (so the default stationary grid keeps its
        historical cell order)."""
        for workload in self.workloads:
            for ttl_factor in self.ttl_factors:
                for alpha in self.alphas:
                    for query_freq in self.query_freqs:
                        yield GridPoint(ttl_factor, alpha, query_freq, workload)


def sweep_grid(
    axes: Optional[GridAxes] = None,
    scenario: Optional[ScenarioParameters] = None,
    duration: float = 240.0,
    seed: int = 0,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Run the selection algorithm over the full grid on the fast kernel.

    Every cell re-derives the scenario (alpha, fQry) and the analytical
    keyTtl, scales the TTL by the cell's factor, and measures hit rate
    and total msg/s with one kernel lane per cell (``execution`` hands
    the cells to :func:`repro.fastsim.parallel.run_many`). The Eq. 16
    model prediction at the same TTL rides along for cross-checking.

    Cells with a non-stationary :attr:`GridAxes.workloads` entry run
    that model's query stream (seeded per cell, so the grid stays
    deterministic for any worker count).

    ``execution`` (default ``Execution("vectorized")``) carries the
    worker count — see :mod:`repro.experiments.execution`; results are
    identical for any worker count.
    """
    from repro.analysis.selection_model import selection_outcome
    from repro.experiments.execution import Cell, CellWorkload, Execution
    from repro.pdht.config import PdhtConfig
    from repro.workloads import model_from_name

    axes = axes or GridAxes()
    scenario = scenario or paper_scenario()
    execution = execution or Execution("vectorized")
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")

    models = {
        name: model_from_name(name, duration)
        for name in axes.workloads
        if name != "stationary"
    }
    cells: list[Cell] = []
    with obs.span("sweep.plan", cells=axes.size):
        for index, point in enumerate(axes.points()):
            cell = replace(scenario, alpha=point.alpha).with_query_freq(
                point.query_freq
            )
            config = PdhtConfig.from_scenario(cell)
            cells.append(
                Cell(
                    cell,
                    config.with_ttl(config.key_ttl * point.ttl_factor),
                    duration,
                    seed=seed,
                    workload=(
                        CellWorkload(
                            models[point.workload],
                            "queries-model",
                            (seed, 0x57EED, index),
                        )
                        if point.workload != "stationary"
                        else None
                    ),
                )
            )
    with obs.span("sweep.grid", cells=len(cells), jobs=execution.jobs):
        obs.progress("sweep.cells", 0, total=len(cells))
        reports = execution.execute(cells)
        obs.progress("sweep.cells", len(reports), total=len(cells))
    if obs.enabled():
        # Per-cell timing from the reports themselves: this works for
        # any worker count (pool workers already measured themselves)
        # and gives the sweep a cell-granular cost breakdown.
        for report in reports:
            obs.add_duration("sweep.cell", report.elapsed_seconds)
        obs.count("sweep.cells", len(reports))

    labels: list[str] = []
    hit_rates: list[float] = []
    measured: list[float] = []
    model: list[float] = []
    ttls: list[float] = []
    for point, cell, report in zip(axes.points(), cells, reports):
        key_ttl = cell.config.key_ttl
        labels.append(point.label())
        hit_rates.append(report.hit_rate)
        measured.append(report.messages_per_second)
        model.append(selection_outcome(cell.params, key_ttl).total_cost)
        ttls.append(key_ttl)
    return FigureSeries(
        name=(
            "Sweep - keyTtl x alpha x fQry grid "
            f"({scenario.num_peers} peers, {scenario.n_keys} keys, "
            f"{axes.size} cells, vectorized)"
        ),
        x_label="keyTtl|alpha|fQry",
        x_values=labels,
        series={
            "hit rate": hit_rates,
            "msg/s": measured,
            "model msg/s": model,
            "keyTtl [s]": ttls,
        },
        notes=(
            "keyTtl factor scales the analytical 1/fMin per cell; "
            "model msg/s is Eq. 16 at the same TTL"
        ),
    )


def optimal_cells(grid: FigureSeries, axes: GridAxes) -> FigureSeries:
    """Derive the optimal-cell surface from a :func:`sweep_grid` figure.

    For every (alpha, fQry) slice, find the TTL factor
    whose cell minimises measured total cost (argmin over the grid's
    keyTtl axis) and report it alongside the minimal cost, the model's
    prediction there, and the hit rate — the measured answer to "which
    keyTtl should this workload run?", exported alongside the raw grid.
    """
    points = list(axes.points())
    if len(points) != len(grid.x_values):
        raise ParameterError(
            f"grid has {len(grid.x_values)} cells but axes describe "
            f"{len(points)}; pass the axes the grid was swept with"
        )
    measured = grid.series_of("msg/s")
    model = grid.series_of("model msg/s")
    hit_rates = grid.series_of("hit rate")
    ttls = grid.series_of("keyTtl [s]")

    by_slice: dict[str, list[int]] = {}
    for index, point in enumerate(points):
        by_slice.setdefault(point.slice_label(), []).append(index)

    labels: list[str] = []
    best_factor: list[float] = []
    best_cost: list[float] = []
    model_cost: list[float] = []
    best_hit: list[float] = []
    best_ttl: list[float] = []
    for label, indices in by_slice.items():
        winner = min(indices, key=lambda i: measured[i])
        labels.append(label)
        best_factor.append(points[winner].ttl_factor)
        best_cost.append(measured[winner])
        model_cost.append(model[winner])
        best_hit.append(hit_rates[winner])
        best_ttl.append(ttls[winner])
    return FigureSeries(
        name=(
            "Sweep optimal cells - argmin msg/s per alpha|fQry slice "
            f"({len(labels)} slices over {len(points)} cells)"
        ),
        x_label="alpha|fQry",
        x_values=labels,
        series={
            "best keyTtl factor": best_factor,
            "best keyTtl [s]": best_ttl,
            "min msg/s": best_cost,
            "model msg/s at best": model_cost,
            "hit rate at best": best_hit,
        },
        notes=(
            "derived from the raw sweep grid: the measured counterpart "
            "of analysis.optimal.optimal_key_ttl"
        ),
    )


#: Serialised default-axes grids, keyed by (scenario, duration, seed,
#: workload) — deliberately *not* by jobs: the grid's values are
#: identical for every worker count, so a jobs=4 run must be able to reuse a jobs=1 grid (and
#: vice versa). Bounded FIFO, like the lru_cache it replaces.
_GRID_CACHE: dict[tuple[ScenarioParameters, float, int, str], str] = {}
_GRID_CACHE_SIZE = 4


def _grid_axes(workload: Optional[str]) -> GridAxes:
    """The ``sweep``/``sweep-optimal`` axes: default grid, optionally
    restricted to one ``--workload`` model."""
    if workload is None:
        return GridAxes()
    return GridAxes(workloads=(workload,))


def default_grid(
    params: ScenarioParameters,
    duration: float = 240.0,
    seed: int = 0,
    workload: Optional[str] = None,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """The ``sweep`` experiment: the default-axes grid, optionally
    restricted to one ``workload`` model, one per (scenario, duration,
    seed, workload).

    ``sweep`` and ``sweep-optimal`` derive from the same expensive grid;
    caching the serialised form lets ``runner all`` pay for it once
    while every caller still gets a fresh, independently mutable
    :class:`FigureSeries`. The worker count only affects how a cache
    miss executes, never what it computes.
    """
    from repro.experiments.export import load_figure_json

    key = (params, duration, seed, workload or "stationary")
    if key not in _GRID_CACHE:
        if len(_GRID_CACHE) >= _GRID_CACHE_SIZE:
            _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
        _GRID_CACHE[key] = sweep_grid(
            _grid_axes(workload), params, duration, seed, execution
        ).to_json()
    return load_figure_json(_GRID_CACHE[key])


def default_optimal_cells(
    params: ScenarioParameters,
    duration: float = 240.0,
    seed: int = 0,
    workload: Optional[str] = None,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """The ``sweep-optimal`` experiment: :func:`optimal_cells` of
    :func:`default_grid`."""
    return optimal_cells(
        default_grid(params, duration, seed, workload, execution),
        _grid_axes(workload),
    )

