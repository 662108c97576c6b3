"""First-class Experiment API: typed specs, capability-gated engines,
structured results, and a decorator-based registry.

The paper's deliverable is its experiment suite (Table 1, Figs. 1-4, the
churn/staleness/adaptivity extensions). This module makes each experiment
a declarative object instead of a string-keyed lambda:

* :class:`ExperimentSpec` — name, title, kind (``analytical`` vs
  ``simulated``), the *capability set* of engines it supports (replacing
  the old ``_event_engine_only`` wrapper), and a typed default parameter
  set (:class:`ExperimentParams`);
* the :func:`experiment` decorator registers a builder function under its
  spec; :func:`get_spec` / :func:`experiment_names` / :data:`REGISTRY`
  expose the registry;
* :func:`run` — the programmatic entry point: validates overrides against
  the spec, resolves the engine against the capability set (raising
  :class:`~repro.errors.CapabilityError` with the gate reason when an
  unsupported engine is requested), executes the builder and wraps the
  figure in an :class:`ExperimentResult` that carries full provenance
  (scenario parameters, engine, seed, wall-clock, package version).

The CLI (:mod:`repro.experiments.runner`) consumes only this registry::

    from repro.experiments.api import run

    result = run("sim", engine="vectorized", duration=120.0)
    print(result.render())
    result.save("out/", fmt="json")     # provenance-stamped export
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional

from repro import obs
from repro.obs.clock import perf_counter
from repro.analysis.parameters import ScenarioParameters
from repro.errors import CapabilityError, ParameterError
from repro.experiments import figures, tables
from repro.experiments.execution import Execution
from repro.experiments.figures import FigureSeries
from repro.experiments.scenario import (
    ENGINES,
    SIMULATION_SCALE,
    paper_scenario,
    resolve_engine,
    simulation_scenario,
)
from repro.fastsim import parallel

__all__ = [
    "ANALYTICAL",
    "SIMULATED",
    "KINDS",
    "ExperimentParams",
    "ExperimentSpec",
    "ExperimentContext",
    "ExperimentResult",
    "experiment",
    "register",
    "get_spec",
    "experiment_names",
    "iter_specs",
    "REGISTRY",
    "run",
]

#: Experiment kinds: closed-form model evaluations vs simulation runs.
ANALYTICAL = "analytical"
SIMULATED = "simulated"
KINDS = (ANALYTICAL, SIMULATED)


# ----------------------------------------------------------------------
# Typed parameters
# ----------------------------------------------------------------------
#: ExperimentParams fields that tune *how* a run executes without
#: affecting *what* it computes (invariant RL104). Each one is popped
#: out of the replicate artifact key by :func:`_replicate_inputs`, so a
#: cached result is reused no matter how many workers produced it or
#: where it was stored. Adding a field here without popping it (or vice
#: versa) fails tests/test_invariants.py.
EXECUTION_ONLY = frozenset({"jobs", "store", "replicates"})


@dataclass(frozen=True)
class ExperimentParams:
    """The typed parameter set an experiment can accept.

    Every field is optional; an :class:`ExperimentSpec` declares which
    fields it *accepts* and supplies defaults for them. ``None`` means
    "not applicable / derive a default" (e.g. ``shift_at`` defaults to
    half the duration in the adaptivity experiment).
    """

    engine: Optional[str] = None
    duration: Optional[float] = None
    seed: Optional[int] = None
    scale: Optional[float] = None
    shift_at: Optional[float] = None
    window: Optional[float] = None
    #: Workload model preset (repro.workloads.WORKLOAD_MODEL_NAMES, or
    #: ``trace:<path>`` for a recorded trace).
    workload: Optional[str] = None
    #: Run the experiment over this many consecutive seeds and aggregate
    #: the series with confidence intervals (repro.experiments.stats).
    replicates: Optional[int] = None
    #: Worker processes for the independent units inside one run
    #: (replicate seeds, sweep cells, per-strategy kernel runs):
    #: 1 = sequential (default), 0 = one worker per CPU, N = pool of N.
    jobs: Optional[int] = None
    #: Artifact-store selection for this run (``repro.store``): a path
    #: opens/creates that SQLite store; the sentinel ``"none"`` disables
    #: all store traffic (masking ``REPRO_STORE``); ``None`` (default)
    #: keeps the process-wide active store, if any.
    store: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("duration", "scale", "shift_at", "window"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        for name in ("seed", "replicates", "jobs"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ParameterError(
                    f"{name} must be an integer, not a boolean, got {value!r}"
                )
        if self.duration is not None and self.duration <= 0:
            raise ParameterError(f"duration must be > 0, got {self.duration}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if self.scale is not None and self.scale <= 0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")
        if self.shift_at is not None and self.shift_at <= 0:
            raise ParameterError(f"shift_at must be > 0, got {self.shift_at}")
        if self.window is not None and self.window <= 0:
            raise ParameterError(f"window must be > 0, got {self.window}")
        if self.replicates is not None and (
            not isinstance(self.replicates, int) or self.replicates < 1
        ):
            raise ParameterError(
                f"replicates must be a positive integer, "
                f"got {self.replicates!r}"
            )
        if self.jobs is not None and (
            not isinstance(self.jobs, int) or self.jobs < 0
        ):
            raise ParameterError(
                f"jobs must be a non-negative integer (0 = cpu count), "
                f"got {self.jobs!r}"
            )
        if self.workload is not None:
            from repro.workloads import validate_workload_name

            validate_workload_name(self.workload)
        if self.store is not None and (
            not isinstance(self.store, str) or not self.store.strip()
        ):
            raise ParameterError(
                f"store must be a path or 'none', got {self.store!r}"
            )

    def to_dict(self) -> dict[str, object]:
        """Only the fields that are set (for provenance records)."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(self)
            if getattr(self, f.name) is not None
        }


#: Names a spec may declare in ``accepts``.
PARAM_NAMES = frozenset(f.name for f in dataclass_fields(ExperimentParams))

#: What every simulated experiment accepts; the adaptivity and sweep
#: specs extend it with ``|``.
SIMULATION_ACCEPTS = frozenset(
    {"engine", "duration", "seed", "scale", "replicates", "jobs", "store"}
)


# ----------------------------------------------------------------------
# Specs and the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentContext:
    """Everything a builder needs: the resolved engine, the scenario the
    run is evaluated on, and the merged parameter set."""

    spec: "ExperimentSpec"
    engine: Optional[str]
    scenario: ScenarioParameters
    params: ExperimentParams

    @property
    def duration(self) -> float:
        if self.params.duration is None:
            raise ParameterError(
                f"experiment {self.spec.name!r} has no duration"
            )
        return self.params.duration

    @property
    def seed(self) -> int:
        return self.params.seed if self.params.seed is not None else 0

    @property
    def shift_at(self) -> float:
        """Shift time; defaults to half the duration."""
        if self.params.shift_at is not None:
            return self.params.shift_at
        return self.duration / 2.0

    @property
    def window(self) -> float:
        """Metric window; defaults to a twelfth of the duration."""
        if self.params.window is not None:
            return self.params.window
        return self.duration / 12.0

    @property
    def execution(self) -> Execution:
        """How this run's cells execute — the single argument simulated
        figures take for engine and workers."""
        jobs = self.params.jobs
        return Execution(engine=self.engine, jobs=1 if jobs is None else jobs)

    def run(self) -> FigureSeries:
        """One builder invocation — the unit shape
        :func:`repro.fastsim.parallel.fan_out` runs.

        A context pickles by reference for everything heavy: the spec's
        builder is a module-level function, so a spawned worker re-imports
        its defining module (repopulating the registry as a side effect)
        and the scenario/params ride along as small frozen dataclasses.
        """
        return self.spec.builder(self)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, capabilities, defaults."""

    name: str
    title: str
    kind: str
    builder: Callable[[ExperimentContext], FigureSeries]
    #: Engines this experiment supports. Empty for analytical experiments
    #: (there is nothing to simulate); the first entry is the default.
    engines: tuple[str, ...] = ()
    #: Why the capability set is restricted (shown in error messages and
    #: ``--list`` when not every engine is supported).
    gate_reason: str = ""
    #: Which :class:`ExperimentParams` fields :func:`run` may override.
    accepts: frozenset = frozenset()
    defaults: ExperimentParams = field(default_factory=ExperimentParams)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").isalnum():
            raise ParameterError(
                f"experiment name must be a non-empty slug, got {self.name!r}"
            )
        if self.kind not in KINDS:
            raise ParameterError(
                f"unknown experiment kind {self.kind!r}; expected one of {KINDS}"
            )
        unknown = set(self.accepts) - PARAM_NAMES
        if unknown:
            raise ParameterError(
                f"experiment {self.name!r} accepts unknown parameters: "
                f"{sorted(unknown)}"
            )
        if self.kind == ANALYTICAL:
            if self.engines:
                raise ParameterError(
                    f"analytical experiment {self.name!r} cannot declare "
                    f"engine capabilities"
                )
        else:
            if not self.engines:
                raise ParameterError(
                    f"simulated experiment {self.name!r} must declare at "
                    f"least one engine capability"
                )
            bad = set(self.engines) - set(ENGINES)
            if bad:
                raise ParameterError(
                    f"experiment {self.name!r} declares unknown engines "
                    f"{sorted(bad)}; known: {ENGINES}"
                )

    # ------------------------------------------------------------------
    @property
    def default_engine(self) -> Optional[str]:
        return self.engines[0] if self.engines else None

    def supports(self, engine: str) -> bool:
        return resolve_engine(engine) in self.engines

    def resolve_engine_request(self, requested: Optional[str]) -> Optional[str]:
        """Map a requested engine onto the capability set.

        Analytical experiments ignore the request (there is nothing to
        simulate). Simulated experiments fall back to their default when
        no engine is requested and *fail loudly* — with the gate reason —
        when an unsupported one is.
        """
        if self.kind == ANALYTICAL:
            return None
        if requested is None:
            return self.default_engine
        engine = resolve_engine(requested)
        if engine not in self.engines:
            reason = f": {self.gate_reason}" if self.gate_reason else ""
            raise CapabilityError(
                f"experiment {self.name!r} does not support engine "
                f"{engine!r} (supported: {', '.join(self.engines)}){reason}"
            )
        return engine

    def capability_label(self) -> str:
        """Short engine-capability description for listings."""
        if self.kind == ANALYTICAL:
            return "-"
        marked = [
            f"{e}*" if e == self.default_engine else e for e in self.engines
        ]
        return ",".join(marked)


#: Registration order is presentation order (``--list``, ``all``).
_REGISTRY: dict[str, ExperimentSpec] = {}


class _RegistryView(Mapping):
    """Read-only live view of the registry (mutation goes via register)."""

    def __getitem__(self, name: str) -> ExperimentSpec:
        return _REGISTRY[name]

    def __iter__(self) -> Iterator[str]:
        return iter(_REGISTRY)

    def __len__(self) -> int:
        return len(_REGISTRY)


REGISTRY: Mapping[str, ExperimentSpec] = _RegistryView()


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry; duplicate names are programming errors."""
    if spec.name in _REGISTRY:
        raise ParameterError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def experiment(
    name: str,
    title: str,
    kind: str,
    engines: tuple[str, ...] = (),
    gate_reason: str = "",
    accepts: frozenset | set | tuple = frozenset(),
    **defaults: object,
):
    """Decorator: register the decorated builder as an experiment.

    ``defaults`` become the spec's :class:`ExperimentParams` defaults::

        @experiment("sim", "Sec. 5.2 ...", SIMULATED,
                    engines=("event", "vectorized"),
                    accepts={"engine", "duration", "seed", "scale"},
                    duration=300.0, seed=0, scale=SIMULATION_SCALE)
        def _sim(ctx: ExperimentContext) -> FigureSeries:
            ...
    """

    def decorate(
        builder: Callable[[ExperimentContext], FigureSeries],
    ) -> Callable[[ExperimentContext], FigureSeries]:
        register(
            ExperimentSpec(
                name=name,
                title=title,
                kind=kind,
                builder=builder,
                engines=tuple(engines),
                gate_reason=gate_reason,
                accepts=frozenset(accepts),
                defaults=ExperimentParams(**defaults),  # type: ignore[arg-type]
            )
        )
        return builder

    return decorate


def get_spec(name: str) -> ExperimentSpec:
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown experiment {name!r}; available: {experiment_names()}"
        )
    return _REGISTRY[name]


def experiment_names() -> list[str]:
    return list(_REGISTRY)


def iter_specs() -> Iterator[ExperimentSpec]:
    return iter(_REGISTRY.values())


# ----------------------------------------------------------------------
# Structured results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentResult:
    """One executed experiment: the figure/table payload plus provenance."""

    name: str
    title: str
    kind: str
    figure: FigureSeries
    engine: Optional[str]
    #: The scenario the run was evaluated on (``ScenarioParameters.to_dict``).
    scenario: dict[str, object]
    #: The resolved parameter values the spec accepted (engine excluded —
    #: it has its own field).
    parameters: dict[str, object]
    seed: Optional[int]
    wall_clock_seconds: float
    version: str
    #: Multi-seed detail when run with ``replicates=N``: the seeds, the
    #: confidence level, and every series' per-seed values. The figure
    #: then carries the seed-mean series plus one "<name> ci95" series of
    #: half-widths (:func:`repro.experiments.stats.summarise`).
    replication: Optional[dict[str, object]] = None
    #: Merged telemetry snapshot of this run (spans/counters/gauges,
    #: pool workers folded in) when collection was enabled
    #: (:func:`repro.obs.enable` or the runner's ``--profile``); ``None``
    #: otherwise. Render it with :func:`repro.obs.profile_text`.
    telemetry: Optional[dict[str, object]] = None

    def render(self) -> str:
        return self.figure.render()

    def provenance(self) -> dict[str, object]:
        """The machine-readable who/what/how of this result."""
        return {
            "experiment": self.name,
            "kind": self.kind,
            "engine": self.engine,
            "scenario": dict(self.scenario),
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "wall_clock_seconds": self.wall_clock_seconds,
            "version": self.version,
        }

    def to_json(self) -> str:
        from repro.experiments.export import result_to_json

        return result_to_json(self)

    def to_csv(self) -> str:
        from repro.experiments.export import figure_to_csv

        return figure_to_csv(self.figure)

    def save(self, directory: str | Path, fmt: str = "json") -> Path:
        """Write ``<directory>/<name>.<fmt>`` and return the path."""
        from repro.experiments.export import save_result

        return save_result(self, directory, fmt=fmt)


# ----------------------------------------------------------------------
# The programmatic entry point
# ----------------------------------------------------------------------
def run(name: str, **overrides: object) -> ExperimentResult:
    """Run a registered experiment with typed overrides.

    Unknown parameter names and parameters the experiment does not accept
    raise :class:`~repro.errors.ParameterError`; requesting an engine
    outside the spec's capability set raises
    :class:`~repro.errors.CapabilityError` with the gate reason.
    """
    spec = get_spec(name)
    unknown = set(overrides) - PARAM_NAMES
    if unknown:
        raise ParameterError(
            f"unknown experiment parameters {sorted(unknown)}; "
            f"known: {sorted(PARAM_NAMES)}"
        )
    unaccepted = set(overrides) - set(spec.accepts)
    if unaccepted:
        accepted = sorted(spec.accepts) or "none"
        raise ParameterError(
            f"experiment {name!r} does not take {sorted(unaccepted)}; "
            f"accepted parameters: {accepted}"
        )
    merged = replace(spec.defaults, **overrides)  # type: ignore[arg-type]
    engine = spec.resolve_engine_request(merged.engine)
    if spec.kind == ANALYTICAL:
        scenario = paper_scenario()
    else:
        scale = merged.scale if merged.scale is not None else SIMULATION_SCALE
        scenario = simulation_scenario(scale=scale)
    ctx = ExperimentContext(
        spec=spec,
        engine=engine,
        scenario=scenario,
        params=replace(merged, engine=engine),
    )
    started = perf_counter()
    telemetry: Optional[dict[str, object]] = None
    with _store_scope(merged.store):
        if obs.enabled():
            # Carve this run's telemetry into its own collector so the
            # result's block describes exactly this experiment; the scoped
            # exit folds it back into the session collector, so nothing is
            # lost for whole-session profiles.
            with obs.scoped() as local:
                with obs.span(
                    "experiment.run",
                    experiment=spec.name,
                    engine=engine or "none",
                ):
                    figure, replication = _execute(ctx)
                obs.report_gc()
                obs.sample_peak_rss()
            telemetry = local.snapshot()
        else:
            figure, replication = _execute(ctx)
    wall_clock = perf_counter() - started

    import repro  # late: repro/__init__ imports this module at its end

    return ExperimentResult(
        name=spec.name,
        title=spec.title,
        kind=spec.kind,
        figure=figure,
        engine=engine,
        scenario=scenario.to_dict(),
        parameters={
            key: value
            for key, value in ctx.params.to_dict().items()
            if key != "engine"
        },
        seed=merged.seed,
        wall_clock_seconds=wall_clock,
        version=repro.__version__,
        replication=replication,
        telemetry=telemetry,
    )


def _store_scope(setting: Optional[str]):
    """The artifact-store context for one run's ``store`` parameter.

    ``None`` leaves the process-wide active store (``REPRO_STORE`` or a
    programmatic :func:`repro.store.set_active_store`) in effect;
    ``"none"`` is the explicit escape hatch disabling all store traffic
    for the run; any other value opens (creating/migrating as needed)
    the SQLite store at that path for the run's duration.
    """
    import contextlib

    if setting is None:
        return contextlib.nullcontext()
    from repro.store import Store, using_store

    if setting == "none":
        return using_store(None)
    return using_store(Store(setting))


def _execute(
    ctx: ExperimentContext,
) -> tuple[FigureSeries, Optional[dict[str, object]]]:
    """Build the figure, fanning replicate seeds over a pool if asked."""
    replicates = ctx.params.replicates or 1
    if replicates == 1:
        return ctx.run(), None
    import json

    from repro.experiments.export import figure_to_json, load_figure_json
    from repro.store.store import active_store

    seeds = tuple(ctx.seed + i for i in range(replicates))
    # One builder invocation per seed. The seeds are independent, so
    # jobs > 1 fans them over the process pool; each child context then
    # runs its own cells in-process (jobs=1) — no nested pools.
    contexts = [
        replace(ctx, params=replace(ctx.params, seed=run_seed, jobs=1))
        for run_seed in seeds
    ]
    # Replicate seeds already in the artifact store load instead of
    # recompute; only the missing seeds run, and each is saved as it
    # lands, so an interrupted replication resumes where it stopped.
    store = active_store()
    figures_by_seed: list[Optional[FigureSeries]] = [None] * len(contexts)
    if store is not None:
        for index, context in enumerate(contexts):
            payload = store.load_replicate(_replicate_inputs(context))
            if payload is not None:
                figures_by_seed[index] = load_figure_json(json.dumps(payload))
    pending = [i for i, fig in enumerate(figures_by_seed) if fig is None]

    def _finish(position: int, figure: FigureSeries) -> None:
        index = pending[position]
        figures_by_seed[index] = figure
        if store is not None:
            store.save_replicate(
                _replicate_inputs(contexts[index]),
                json.loads(figure_to_json(figure)),
            )

    parallel.fan_out(
        [contexts[i] for i in pending],
        parallel.resolve_worker_count(ctx.execution.jobs),
        _finish,
        "experiment.replicates",
        done=len(contexts) - len(pending),
    )
    return _aggregate_replicates(figures_by_seed, seeds)


def _replicate_inputs(ctx: "ExperimentContext") -> dict[str, object]:
    """Content-key inputs of one replicate seed's figure payload.

    ``jobs`` and ``store`` are execution detail, and ``replicates`` is
    sibling count — none of them can change this seed's figure, so they
    stay out of the key and a ``replicates=5`` rerun reuses the three
    payloads a ``replicates=3`` run stored. Everything that *can* change
    the figure — experiment, engine, scenario, the per-seed parameter
    set — goes in; the envelope adds ``repro.__version__`` and the
    ``replicate`` schema rev on top.
    """
    params = ctx.params.to_dict()
    params.pop("jobs", None)
    params.pop("store", None)
    params.pop("replicates", None)
    return {
        "experiment": ctx.spec.name,
        "engine": ctx.engine,
        "scenario": ctx.scenario,
        "params": params,
    }


#: Confidence level of the ``replicates=N`` aggregation.
REPLICATE_CONFIDENCE = 0.95


def _aggregate_replicates(
    figures: list[FigureSeries], seeds: tuple[int, ...]
) -> tuple[FigureSeries, dict[str, object]]:
    """Aggregate one figure per seed into mean series + CI half-widths.

    Every seed must produce the same x axis and series names (it ran the
    same experiment); the aggregate figure carries, per input series, the
    seed-mean values plus a ``"<name> ci95"`` series of Student-t
    confidence half-widths. The replication payload keeps the raw
    per-seed values for downstream analysis and export.
    """
    from repro.experiments.stats import summarise

    first = figures[0]
    for other in figures[1:]:
        if other.x_values != first.x_values:
            raise ParameterError(
                "replicated runs disagree on the x axis — the experiment "
                "changed shape between seeds"
            )
        if set(other.series) != set(first.series):
            raise ParameterError(
                "replicated runs disagree on series names — the "
                "experiment changed shape between seeds"
            )
    series: dict[str, list[float]] = {}
    per_seed: dict[str, list[list[float]]] = {}
    ci_label = f"ci{int(round(REPLICATE_CONFIDENCE * 100))}"
    for name in first.series:
        samples_by_seed = [fig.series_of(name) for fig in figures]
        per_seed[name] = [list(values) for values in samples_by_seed]
        means: list[float] = []
        halfwidths: list[float] = []
        for i in range(len(first.x_values)):
            summary = summarise(
                name,
                [values[i] for values in samples_by_seed],
                confidence=REPLICATE_CONFIDENCE,
            )
            means.append(summary.mean)
            halfwidths.append(summary.ci_halfwidth)
        series[name] = means
        series[f"{name} {ci_label}"] = halfwidths
    figure = FigureSeries(
        name=f"{first.name} [mean of {len(seeds)} seeds]",
        x_label=first.x_label,
        x_values=list(first.x_values),
        series=series,
        notes=(
            (first.notes + "; " if first.notes else "")
            + f"{ci_label} = Student-t half-width over seeds "
            f"{seeds[0]}..{seeds[-1]}"
        ),
    )
    replication = {
        "seeds": list(seeds),
        "confidence": REPLICATE_CONFIDENCE,
        "per_seed": per_seed,
    }
    return figure, replication


# ----------------------------------------------------------------------
# The built-in experiment suite (the old EXPERIMENTS dict, as specs)
# ----------------------------------------------------------------------
@experiment(
    "table1",
    "Table 1 - parameters of the sample scenario",
    ANALYTICAL,
)
def _table1(ctx: ExperimentContext) -> FigureSeries:
    return tables.table1_series(ctx.scenario)


@experiment("fig1", "Fig. 1 - total cost vs query frequency", ANALYTICAL)
def _fig1(ctx: ExperimentContext) -> FigureSeries:
    return figures.figure1(ctx.scenario)


@experiment("fig2", "Fig. 2 - savings of ideal partial indexing", ANALYTICAL)
def _fig2(ctx: ExperimentContext) -> FigureSeries:
    return figures.figure2(ctx.scenario)


@experiment("fig3", "Fig. 3 - indexed fraction and pIndxd", ANALYTICAL)
def _fig3(ctx: ExperimentContext) -> FigureSeries:
    return figures.figure3(ctx.scenario)


@experiment("fig4", "Fig. 4 - savings with the selection algorithm", ANALYTICAL)
def _fig4(ctx: ExperimentContext) -> FigureSeries:
    return figures.figure4(ctx.scenario)


@experiment(
    "keyttl",
    "Sec. 5.1.1 - keyTtl estimation-error sensitivity",
    ANALYTICAL,
)
def _keyttl(ctx: ExperimentContext) -> FigureSeries:
    return figures.keyttl_sensitivity(ctx.scenario)


@experiment(
    "optimal",
    "Extension - heuristics vs exact optima",
    ANALYTICAL,
)
def _optimal(ctx: ExperimentContext) -> FigureSeries:
    return figures.heuristic_vs_optimal(ctx.scenario)


@experiment(
    "sim",
    "Sec. 5.2 - simulated strategies vs the analytical model",
    SIMULATED,
    engines=("event", "vectorized"),
    accepts=SIMULATION_ACCEPTS,
    duration=300.0,
    seed=0,
    scale=SIMULATION_SCALE,
)
def _sim(ctx: ExperimentContext) -> FigureSeries:
    return figures.simulation_comparison(
        params=ctx.scenario,
        duration=ctx.duration,
        seed=ctx.seed,
        execution=ctx.execution,
    )


# adaptivity is a single run at replicates=1; its "jobs" capability only
# parallelizes the replicate seeds (handled by run()).
@experiment(
    "adaptivity",
    "Sec. 5.2 - hit rate under a query-distribution shift",
    SIMULATED,
    engines=("event", "vectorized"),
    accepts=SIMULATION_ACCEPTS | {"shift_at", "window"},
    duration=1200.0,
    seed=0,
    scale=SIMULATION_SCALE,
)
def _adaptivity(ctx: ExperimentContext) -> FigureSeries:
    return figures.adaptivity_experiment(
        params=ctx.scenario,
        duration=ctx.duration,
        shift_at=ctx.shift_at,
        window=ctx.window,
        seed=ctx.seed,
        execution=ctx.execution,
    )


@experiment(
    "adaptivity-tracking",
    "Extension - selection vs partialIdeal oracle across workload models",
    SIMULATED,
    engines=("vectorized", "event"),
    accepts=SIMULATION_ACCEPTS | {"shift_at", "window", "workload"},
    duration=1200.0,
    seed=0,
    scale=SIMULATION_SCALE,
)
def _adaptivity_tracking(ctx: ExperimentContext) -> FigureSeries:
    return figures.adaptivity_tracking(
        params=ctx.scenario,
        duration=ctx.duration,
        window=ctx.window,
        shift_at=ctx.params.shift_at,
        seed=ctx.seed,
        workload=ctx.params.workload,
        execution=ctx.execution,
    )


@experiment(
    "adaptivity-lag",
    "Extension - per-model convergence lag after the first workload shift",
    SIMULATED,
    engines=("vectorized", "event"),
    accepts=(SIMULATION_ACCEPTS - {"replicates"})
    | {"shift_at", "window", "workload"},
    duration=1200.0,
    seed=0,
    scale=SIMULATION_SCALE,
)
def _adaptivity_lag(ctx: ExperimentContext) -> FigureSeries:
    return figures.adaptivity_lag_table(
        params=ctx.scenario,
        duration=ctx.duration,
        window=ctx.window,
        shift_at=ctx.params.shift_at,
        seed=ctx.seed,
        workload=ctx.params.workload,
        execution=ctx.execution,
    )


@experiment(
    "churn",
    "Extension - selection algorithm under churn",
    SIMULATED,
    engines=("event", "vectorized"),
    accepts=SIMULATION_ACCEPTS,
    duration=240.0,
    seed=0,
    scale=SIMULATION_SCALE,
)
def _churn(ctx: ExperimentContext) -> FigureSeries:
    return figures.churn_experiment(
        params=ctx.scenario,
        duration=ctx.duration,
        seed=ctx.seed,
        execution=ctx.execution,
    )


@experiment(
    "staleness",
    "Extension - index staleness without proactive updates",
    SIMULATED,
    engines=("event", "vectorized"),
    accepts=SIMULATION_ACCEPTS,
    duration=300.0,
    seed=0,
    scale=0.02,
)
def _staleness(ctx: ExperimentContext) -> FigureSeries:
    return figures.staleness_experiment(
        params=ctx.scenario,
        duration=ctx.duration,
        seed=ctx.seed,
        execution=ctx.execution,
    )


@experiment(
    "simfig1",
    "Fig. 1 regenerated in simulation",
    SIMULATED,
    engines=("event", "vectorized"),
    accepts=SIMULATION_ACCEPTS,
    duration=120.0,
    seed=0,
    scale=0.02,
)
def _simfig1(ctx: ExperimentContext) -> FigureSeries:
    return figures.simulated_figure1(
        params=ctx.scenario,
        duration=ctx.duration,
        seed=ctx.seed,
        execution=ctx.execution,
    )
