"""Data generators for every figure of the paper (plus extensions).

Each function returns a :class:`FigureSeries` — x values plus named y
series — matching exactly what the corresponding figure plots. The
benchmark harness prints them; tests assert on their shapes.
:mod:`repro.experiments.api` registers each one as an experiment, and
its signature is that experiment's parameter list: what it accepts and
its defaults.

The module imports no numpy: the registry reads these signatures on every
CLI call, a warm one included, so each body imports the model, the engines
and the execution layer it computes with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.parameters import PAPER_FREQUENCIES, ScenarioParameters
from repro.errors import ParameterError, require_period
from repro.experiments.reporting import format_period, format_series
from repro.experiments.scenario import paper_scenario, simulation_scenario

if TYPE_CHECKING:
    from repro.analysis.sweep import FrequencySweep
    from repro.experiments.execution import Execution
    from repro.experiments.tables import TableSeries


__all__ = [
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
]


@dataclass
class FigureSeries:
    """One reproduced figure: x axis plus named y series."""

    name: str
    x_label: str
    x_values: list[str]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        text = format_series(self.x_label, self.x_values, self.series, title=self.name)
        if self.notes:
            text += f"\n({self.notes})"
        return text

    def series_of(self, name: str) -> list[float]:
        if name not in self.series:
            raise ParameterError(
                f"figure {self.name!r} has no series {name!r}; "
                f"available: {sorted(self.series)}"
            )
        return self.series[name]

    # Late import: repro.experiments.export imports this module for the
    # FigureSeries type.
    def to_json(self) -> str:
        from repro.experiments.export import figure_to_json

        return figure_to_json(self)


def _frequency_labels(frequencies: Sequence[float]) -> list[str]:
    return [format_period(f) for f in frequencies]


def _paper_sweep(params: Optional[ScenarioParameters]) -> FrequencySweep:
    """The closed-form sweep over the paper's query frequencies (Figs. 1-4)."""
    from repro.analysis.sweep import sweep_frequencies

    return sweep_frequencies(params or paper_scenario(), PAPER_FREQUENCIES)


# ----------------------------------------------------------------------
# Analytical figures (paper scale)
# ----------------------------------------------------------------------
def figure1(params: Optional[ScenarioParameters] = None) -> FigureSeries:
    """Fig. 1: total msg/s of indexAll, noIndex and ideal partial indexing."""
    sweep = _paper_sweep(params)
    return FigureSeries(
        name="Fig. 1 - total cost [msg/s] vs per-peer query frequency",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "indexAll": sweep.index_all_costs,
            "noIndex": sweep.no_index_costs,
            "partial": sweep.partial_costs,
        },
        notes="partial is ideal partial indexing (Eq. 13, lower bound)",
    )


def figure2(params: Optional[ScenarioParameters] = None) -> FigureSeries:
    """Fig. 2: savings of ideal partial indexing vs both baselines."""
    sweep = _paper_sweep(params)
    return FigureSeries(
        name="Fig. 2 - savings of ideal partial indexing",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "vs indexAll": sweep.ideal_savings_vs_index_all,
            "vs noIndex": sweep.ideal_savings_vs_no_index,
        },
    )


def figure3(params: Optional[ScenarioParameters] = None) -> FigureSeries:
    """Fig. 3: index-size fraction and pIndxd of ideal partial indexing."""
    sweep = _paper_sweep(params)
    return FigureSeries(
        name="Fig. 3 - indexed fraction and index hit probability",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "index size": sweep.index_fractions,
            "pIndxd": sweep.p_indexed_values,
        },
    )


def figure4(params: Optional[ScenarioParameters] = None) -> FigureSeries:
    """Fig. 4: savings of the TTL selection algorithm vs both baselines."""
    sweep = _paper_sweep(params)
    return FigureSeries(
        name="Fig. 4 - savings with the selection algorithm (keyTtl = 1/fMin)",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "vs indexAll": sweep.selection_savings_vs_index_all,
            "vs noIndex": sweep.selection_savings_vs_no_index,
        },
        notes="negative values = selection algorithm loses to indexAll "
        "(paper: 'except for very high query frequencies')",
    )


#: Query frequency and keyTtl error factors of the Sec. 5.1.1 figure.
KEYTTL_QUERY_FREQ = 1.0 / 600.0
KEYTTL_ERROR_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)


def keyttl_sensitivity(
    params: Optional[ScenarioParameters] = None,
) -> FigureSeries:
    """Section 5.1.1: cost penalty of mis-estimating keyTtl by +/-50%."""
    from repro.analysis.sensitivity import sweep_keyttl_error

    params = (params or paper_scenario()).with_query_freq(KEYTTL_QUERY_FREQ)
    results = sweep_keyttl_error(params, KEYTTL_ERROR_FACTORS)
    return FigureSeries(
        name=(
            "Sec. 5.1.1 - keyTtl estimation-error sensitivity "
            f"(fQry = {format_period(KEYTTL_QUERY_FREQ)})"
        ),
        x_label="keyTtl factor",
        x_values=[f"{r.error_factor:.2f}x" for r in results],
        series={
            "total cost [msg/s]": [r.outcome.total_cost for r in results],
            "cost penalty": [r.cost_penalty for r in results],
            "savings vs noIndex": [
                r.outcome.savings_vs_no_index for r in results
            ],
        },
        notes="penalty = cost / cost at the ideal keyTtl",
    )


def heuristic_vs_optimal(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = PAPER_FREQUENCIES,
) -> FigureSeries:
    """Extension: the paper's heuristics against exact optimisation.

    Section 6 concedes the scheme "does not make the system theoretically
    optimal"; this figure quantifies the concession. Two gaps per swept
    frequency:

    * ``maxRank gap`` — Eq. 13 cost at the probT/fMin rank over the cost
      at the exactly optimal rank;
    * ``keyTtl gap`` — Eq. 17 cost at keyTtl = 1/fMin over the cost at the
      golden-section optimal TTL.
    """
    from repro.analysis.optimal import optimal_key_ttl, optimal_max_rank
    from repro.analysis.strategies import cost_partial_ideal
    from repro.analysis.selection_model import SelectionModel
    from repro.analysis.threshold import solve_threshold

    params = params or paper_scenario()
    rank_gaps, ttl_gaps = [], []
    for freq in frequencies:
        scenario = params.with_query_freq(freq)
        threshold = solve_threshold(scenario)
        heuristic_rank_cost = cost_partial_ideal(scenario, threshold)
        optimal_rank_cost = optimal_max_rank(scenario).cost
        rank_gaps.append(heuristic_rank_cost / optimal_rank_cost - 1.0)
        heuristic_ttl_cost = SelectionModel(
            scenario, key_ttl=threshold.key_ttl
        ).total_cost()
        _, optimal_ttl_cost = optimal_key_ttl(scenario)
        ttl_gaps.append(heuristic_ttl_cost / optimal_ttl_cost - 1.0)
    return FigureSeries(
        name="Extension - cost gap of the paper's heuristics vs exact optima",
        x_label="queryFreq",
        x_values=_frequency_labels(list(frequencies)),
        series={"maxRank gap": rank_gaps, "keyTtl gap": ttl_gaps},
        notes="gap = heuristic cost / optimal cost - 1",
    )


# ----------------------------------------------------------------------
# Simulated experiments (reduced scale)
#
# Each body lists its independent strategy runs as ``Cell`` specs, hands
# them to ``execution.execute`` and reduces the reports; how the cells run
# (engine, workers) is the ``Execution``
# argument's business — see :mod:`repro.experiments.execution`.
# ----------------------------------------------------------------------
def simulation_comparison(
    params: Optional[ScenarioParameters] = None,
    duration: float = 300.0,
    seed: int = 0,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Section 5.2: simulated strategies vs the analytical model.

    Runs all four strategies on the same reduced-scale substrate and
    reports measured msg/s next to the model's prediction at the same
    scale. The claim under test is *ordering and rough factors*, not
    absolute equality. ``Execution("vectorized")`` swaps in the batch
    kernel, which also unlocks paper-scale (and larger) parameter sets.
    """
    from repro.analysis.selection_model import selection_outcome
    from repro.analysis.strategies import STRATEGY_NAMES, evaluate_strategies
    from repro.experiments.execution import Cell, Execution
    from repro.pdht.config import PdhtConfig

    params = params or simulation_scenario()
    execution = execution or Execution()
    config = PdhtConfig.from_scenario(params)
    names = list(STRATEGY_NAMES)
    reports = execution.execute(
        [
            Cell(params, config, duration, strategy=name, seed=seed)
            for name in names
        ]
    )
    measured = [report.messages_per_second for report in reports]

    analytic = evaluate_strategies(params)
    selection = selection_outcome(params, config.key_ttl)
    model = {
        "noIndex": analytic.no_index,
        "indexAll": analytic.index_all,
        "partialIdeal": analytic.partial,
        "partialSelection": selection.total_cost,
    }
    return FigureSeries(
        name=(
            f"Sec. 5.2 - simulation vs model "
            f"({params.num_peers} peers, {params.n_keys} keys, "
            f"fQry = {format_period(params.query_freq)}, pgrid)"
        ),
        x_label="strategy",
        x_values=names,
        series={
            "simulated [msg/s]": measured,
            "model [msg/s]": [model[n] for n in names],
            "sim/model": [
                value / model[n] if model[n] > 0 else float("nan")
                for n, value in zip(names, measured)
            ],
            "hit rate": [report.hit_rate for report in reports],
        },
    )


def churn_experiment(
    params: Optional[ScenarioParameters] = None,
    duration: float = 240.0,
    seed: int = 0,
    availabilities: Sequence[float] = (1.0, 0.75, 0.5),
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Extension: the selection algorithm under increasing churn.

    P2P clients are "extremely transient" [ChRa03] — churn is the whole
    reason Eq. 8's maintenance cost exists. This experiment runs the
    selection algorithm at several peer availabilities (mean session
    30 min; offline time set to hit the target availability) and reports
    query success, index hit rate, and total message rate. Expected: the
    success rate tracks the replica-availability bound ``1-(1-a)^repl``
    (essentially 1 for repl = 50) while hit rate degrades gracefully and
    cost rises with re-fetching — under low availability the cost is
    dominated by broadcast walks lengthening (and exhausting their TTL)
    through the fragmented online overlay.

    Runs on either engine: the vectorized one charges the
    availability-dependent per-op model (calibrated below the
    calibration limit, structural Monte-Carlo beyond), which unlocks
    availability sweeps at 10^5-10^6 peers.
    """
    from repro.experiments.execution import Cell, Execution
    from repro.fastsim.compare import churn_config_for_availability
    from repro.pdht.config import PdhtConfig

    params = params or simulation_scenario()
    execution = execution or Execution()
    config = PdhtConfig.from_scenario(params)
    # One mean-session convention for figures, sweeps and the cross-engine
    # agreement checks alike.
    reports = execution.execute(
        [
            Cell(
                params, config, duration, seed=seed,
                churn=churn_config_for_availability(availability),
            )
            for availability in availabilities
        ]
    )
    return FigureSeries(
        name=(
            f"Extension - selection algorithm under churn "
            f"({params.num_peers} peers, repl {params.replication})"
        ),
        x_label="availability",
        x_values=[f"{a:.2f}" for a in availabilities],
        series={
            "success rate": [report.success_rate for report in reports],
            "hit rate": [report.hit_rate for report in reports],
            "msg/s": [report.messages_per_second for report in reports],
        },
        notes="mean session 30 min; offline time tuned per availability",
    )


def simulated_figure1(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = (1 / 30, 1 / 120, 1 / 600, 1 / 1800),
    duration: float = 120.0,
    seed: int = 0,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Fig. 1 regenerated *in simulation* (reduced scale).

    Runs all four strategies at each swept frequency on the simulation
    substrate and reports measured msg/s — the end-to-end counterpart of
    the analytical :func:`figure1`. The shape claim under test: simulated
    ``partialIdeal`` stays below both all-or-nothing baselines at every
    frequency, and ``noIndex`` falls linearly while ``indexAll`` stays
    flat.
    """
    from repro.experiments.execution import Cell, Execution
    from repro.pdht.config import PdhtConfig

    params = params or simulation_scenario(scale=0.02)
    execution = execution or Execution()
    names = ("indexAll", "noIndex", "partialIdeal", "partialSelection")
    cells = []
    for freq in frequencies:
        scenario = params.with_query_freq(freq)
        config = PdhtConfig.from_scenario(scenario)
        cells += [
            Cell(scenario, config, duration, strategy=name, seed=seed)
            for name in names
        ]
    reports = execution.execute(cells)
    return FigureSeries(
        name=(
            f"Fig. 1 (simulated) - msg/s at {params.num_peers} peers, "
            f"{params.n_keys} keys"
        ),
        x_label="queryFreq",
        x_values=_frequency_labels(list(frequencies)),
        series={
            name: [
                report.messages_per_second
                for report in reports[offset :: len(names)]
            ]
            for offset, name in enumerate(names)
        },
    )


def staleness_experiment(
    params: Optional[ScenarioParameters] = None,
    duration: float = 300.0,
    refresh_period: float = 100.0,
    seed: int = 0,
    ttl_factors: Sequence[float] = (0.25, 1.0, 4.0),
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Extension: answer staleness without proactive updates.

    The Section 5 selection algorithm drops Eq. 9's proactive update path:
    a refreshed article keeps being answered from its *old* index entry
    until the entry expires or a miss re-fetches it. This experiment
    publishes versioned payloads, refreshes all content every
    ``refresh_period`` rounds, and measures the fraction of index hits
    returning an outdated version, across TTL settings. Expected: staleness
    grows with the TTL (longer-lived entries survive more refreshes) —
    the freshness/cost trade-off hiding inside the keyTtl choice.

    The vectorized engine measures the same distribution from the
    kernel's per-key payload/indexed version counters (within 5% of the
    event engine; ``tests/properties/test_property_fastsim.py``) and
    scales to 10^5-10^6 peers.
    """
    from repro.experiments.execution import Cell, Execution
    from repro.pdht.config import PdhtConfig

    params = params or simulation_scenario(scale=0.02)
    execution = execution or Execution()
    if refresh_period <= 0 or duration <= 0:
        raise ParameterError("duration and refresh_period must be > 0")
    for factor in ttl_factors:
        require_period("ttl_factors", factor)
    base = PdhtConfig.from_scenario(params)
    reports = execution.execute(
        [
            Cell(
                params, base.with_ttl(base.key_ttl * factor), duration,
                seed=seed, content_refresh_period=refresh_period,
            )
            for factor in ttl_factors
        ]
    )
    return FigureSeries(
        name=(
            "Extension - index staleness without proactive updates "
            f"(content refreshed every {refresh_period:.0f}s, "
            f"{execution.engine})"
        ),
        x_label="keyTtl factor",
        x_values=[f"{factor:g}x" for factor in ttl_factors],
        series={
            "stale hit fraction": [
                report.stale_hit_fraction for report in reports
            ],
            "hit rate": [report.hit_rate for report in reports],
        },
        notes="stale = index hit whose payload predates the last refresh",
    )


def _shift_and_window(
    duration: float, shift_at: Optional[float], window: Optional[float]
) -> tuple[float, float]:
    """The shift time and hit-rate window of a shifted run: half and a
    twelfth of ``duration`` unless given; a window must be positive and a
    shift must fall inside the run."""
    shift_at = duration / 2.0 if shift_at is None else shift_at
    window = duration / 12.0 if window is None else window
    if window <= 0:
        raise ParameterError(f"window must be > 0, got {window}")
    if not 0 < shift_at < duration:
        raise ParameterError(
            f"shift_at must be inside (0, {duration}), got {shift_at}"
        )
    return shift_at, window


def adaptivity_experiment(
    params: Optional[ScenarioParameters] = None,
    duration: float = 1200.0,
    shift_at: Optional[float] = None,
    window: Optional[float] = None,
    seed: int = 0,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Section 5.2 adaptivity: hit rate under a query-distribution shift.

    Runs the selection algorithm under a
    :class:`~repro.workloads.models.RankSwap` that re-draws the rank->key
    mapping at ``shift_at`` (default: half the duration), measuring the
    hit rate per ``window`` (default: a twelfth of the duration). The hit
    rate collapses at the shift and recovers as the TTL index re-learns
    the new hot set — the paper's "adapts to changing query
    distributions" claim.
    """
    from repro.experiments.execution import Cell, CellWorkload, Execution
    from repro.pdht.config import PdhtConfig
    from repro.workloads import RankSwap

    params = params or simulation_scenario()
    execution = execution or Execution()
    shift_at, window = _shift_and_window(duration, shift_at, window)
    cell = Cell(
        params, PdhtConfig.from_scenario(params), duration, seed=seed,
        window=window,
        # A dedicated stream for the shifted workload, derived stably from
        # the run seed.
        workload=CellWorkload(
            RankSwap(shift_at), "queries-shifted", (seed, 0x5217F)
        ),
    )
    (report,) = execution.execute([cell])
    times = [f"{t:.0f}" for t, _ in report.hit_rate_series]
    return FigureSeries(
        name=(
            f"Sec. 5.2 - adaptivity under a distribution shift at "
            f"t={shift_at:.0f}s"
        ),
        x_label="time [s]",
        x_values=times,
        series={
            "hit rate": [v for _, v in report.hit_rate_series],
            "index size": [float(v) for _, v in report.index_size_series],
        },
        notes="rank->key mapping reshuffled at the marked time",
    )


#: Non-stationary models the tracking experiment sweeps by default.
TRACKING_WORKLOADS = (
    "rank-swap",
    "gradual-drift",
    "flash-crowd",
    "diurnal",
)

#: A model "converged" when the windowed hit rate recovers to this
#: fraction of its pre-shift level.
TRACKING_RECOVERY = 0.9


def _convergence_lag(
    series: Sequence[tuple[float, float]], first_shift: float
) -> float:
    """Rounds from the first shift until the windowed hit rate recovers.

    The pre-shift baseline is the mean over the second half of the
    pre-shift windows (skipping the index warm-up); when the model shifts
    before the first window even closes (a short-period drift), the mean
    of the run's final quarter stands in — the steady tracking level the
    strategy eventually reaches. Recovery is the first post-shift window
    at or above ``TRACKING_RECOVERY`` times the baseline. ``0.0`` when
    the model never shifts (nothing to recover from), ``inf`` when the
    run ends unrecovered.
    """
    if first_shift == float("inf"):
        return 0.0
    if not series:
        return float("inf")
    pre = [value for t, value in series if t <= first_shift]
    if pre:
        baseline = sum(pre[len(pre) // 2 :]) / max(
            len(pre) - len(pre) // 2, 1
        )
    else:
        tail = [value for _, value in series]
        tail = tail[-max(1, len(tail) // 4) :]
        baseline = sum(tail) / len(tail)
    for t, value in series:
        if t > first_shift and value >= TRACKING_RECOVERY * baseline:
            return t - first_shift
    return float("inf")


def _tracking_reports(
    params: Optional[ScenarioParameters],
    duration: float,
    window: Optional[float],
    shift_at: Optional[float],
    seed: int,
    workload: Optional[str],
    execution: Optional[Execution],
):
    """Run selection + oracle across workload models; shared plumbing of
    :func:`adaptivity_tracking` and :func:`adaptivity_lag_table`.

    Returns ``(params, execution, names, models, reports)`` where
    ``reports`` maps ``(model_name, strategy)`` to the windowed run report.
    """
    from repro.experiments.execution import Cell, CellWorkload, Execution
    from repro.pdht.config import PdhtConfig
    from repro.workloads import model_from_name

    params = params or simulation_scenario()
    # The tracking curves want long durations: vectorized by default.
    execution = execution or Execution("vectorized")
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")
    shift_at, window = _shift_and_window(duration, shift_at, window)
    names = TRACKING_WORKLOADS if workload is None else (workload,)
    models = {
        name: model_from_name(name, duration, shift_at) for name in names
    }
    config = PdhtConfig.from_scenario(params)
    keys = [
        (name, strategy)
        for name in names
        for strategy in ("partialSelection", "partialIdeal")
    ]
    # Both engines seed the query stream per *model*, not per cell: the
    # selection and oracle runs of one model must see the identical
    # realized workload (same post-shift permutations, same query
    # sequence) or their gap compares runs of different workloads.
    reports = execution.execute(
        [
            Cell(
                params, config, duration, strategy=strategy, seed=seed,
                window=window,
                workload=CellWorkload(
                    models[name],
                    "queries-model",
                    (seed, 0x7AC4, names.index(name)),
                ),
            )
            for name, strategy in keys
        ]
    )
    return params, execution, names, models, dict(zip(keys, reports))


def adaptivity_tracking(
    params: Optional[ScenarioParameters] = None,
    duration: float = 1200.0,
    window: Optional[float] = None,
    shift_at: Optional[float] = None,
    seed: int = 0,
    workload: Optional[str] = None,
    execution: Optional[Execution] = None,
) -> FigureSeries:
    """Extension: how fast the selection strategy tracks each workload model.

    For every workload model (the :data:`TRACKING_WORKLOADS` presets, or
    the single model named by ``workload``) this runs the Section 5
    selection strategy next to the ``partialIdeal`` oracle — which knows
    the *current* popularity ranks and therefore adapts instantly — and
    reports both windowed hit-rate curves plus the selection strategy's
    convergence lag after the model's first shift (rounds until the hit
    rate recovers to 90% of its pre-shift level). The oracle curve is the
    upper envelope; the gap after each boundary *is* the price of
    decentralized adaptation the paper's Section 5.2 claim is about.

    Runs on either engine; the vectorized one is the default (the
    tracking curves want long durations). The structured per-model lag
    table is :func:`adaptivity_lag_table` (experiment ``adaptivity-lag``).
    """
    params, execution, names, models, reports = _tracking_reports(
        params, duration, window, shift_at, seed, workload, execution
    )
    reference = reports[(names[0], "partialSelection")].hit_rate_series
    times = [f"{t:.0f}" for t, _ in reference]
    series: dict[str, list[float]] = {}
    lags: list[str] = []
    for name in names:
        selection = reports[(name, "partialSelection")]
        oracle = reports[(name, "partialIdeal")]
        series[f"selection [{name}]"] = [
            v for _, v in selection.hit_rate_series
        ]
        series[f"oracle [{name}]"] = [v for _, v in oracle.hit_rate_series]
        first_shift = models[name].next_boundary(-float("inf"))
        lag = _convergence_lag(selection.hit_rate_series, first_shift)
        lags.append(f"{name}={lag:g}")
    return FigureSeries(
        name=(
            f"Extension - adaptivity tracking across workload models "
            f"({params.num_peers} peers, {execution.engine})"
        ),
        x_label="time [s]",
        x_values=times,
        series=series,
        notes=(
            "oracle = partialIdeal (knows the current ranks, adapts "
            "instantly); convergence lag [rounds] "
            f"(hit rate back to {TRACKING_RECOVERY:.0%} of pre-shift): "
            + ", ".join(lags)
        ),
    )


def adaptivity_lag_table(
    params: Optional[ScenarioParameters] = None,
    duration: float = 1200.0,
    window: Optional[float] = None,
    shift_at: Optional[float] = None,
    seed: int = 0,
    workload: Optional[str] = None,
    execution: Optional[Execution] = None,
) -> TableSeries:
    """The per-model convergence-lag table, as structured data.

    Same runs as :func:`adaptivity_tracking` (selection next to the
    ``partialIdeal`` oracle per workload model), but instead of the
    hit-rate curves it tabulates, per model: the model's first shift
    time, the selection strategy's convergence lag (rounds until the
    windowed hit rate recovers to :data:`TRACKING_RECOVERY` of its
    pre-shift level; ``inf`` if the run ends unrecovered, ``0`` for a
    shift-free model), both strategies' whole-run hit rates, and the
    oracle gap (oracle minus selection). Exports like any figure
    (CSV/JSON), with the row layout preserved.
    """
    from repro.experiments.tables import TableSeries

    params, execution, names, models, reports = _tracking_reports(
        params, duration, window, shift_at, seed, workload, execution
    )
    shifts: list[float] = []
    lags: list[float] = []
    selection_hits: list[float] = []
    oracle_hits: list[float] = []
    gaps: list[float] = []
    rows: list[tuple] = []
    for name in names:
        selection = reports[(name, "partialSelection")]
        oracle = reports[(name, "partialIdeal")]
        first_shift = models[name].next_boundary(-float("inf"))
        lag = _convergence_lag(selection.hit_rate_series, first_shift)
        gap = oracle.hit_rate - selection.hit_rate
        shifts.append(first_shift)
        lags.append(lag)
        selection_hits.append(selection.hit_rate)
        oracle_hits.append(oracle.hit_rate)
        gaps.append(gap)
        rows.append(
            (
                name,
                f"{first_shift:g}",
                f"{lag:g}",
                f"{selection.hit_rate:.4f}",
                f"{oracle.hit_rate:.4f}",
                f"{gap:+.4f}",
            )
        )
    return TableSeries(
        name=(
            f"Extension - convergence lag per workload model "
            f"({params.num_peers} peers, {execution.engine})"
        ),
        x_label="model",
        x_values=list(names),
        series={
            "first shift [r]": shifts,
            "convergence lag [r]": lags,
            "selection hit rate": selection_hits,
            "oracle hit rate": oracle_hits,
            "oracle gap": gaps,
        },
        notes=(
            f"lag = rounds until the windowed hit rate recovers to "
            f"{TRACKING_RECOVERY:.0%} of its pre-shift level "
            f"(inf = unrecovered at run end, 0 = shift-free model); "
            f"gap = oracle - selection whole-run hit rate"
        ),
        rows=rows,
        headers=(
            "Model",
            "First shift [r]",
            "Lag [r]",
            "Selection hit",
            "Oracle hit",
            "Gap",
        ),
    )
