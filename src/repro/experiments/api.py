"""First-class Experiment API: typed specs, capability-gated engines,
structured results, and a registry of figure functions.

The paper's deliverable is its experiment suite (Table 1, Figs. 1-4, the
churn/staleness/adaptivity extensions). Each experiment is declared once,
by naming the figure function that computes it:

* :func:`experiment` registers a figure function under a name, title,
  kind (``analytical`` vs ``simulated``), the *capability set* of engines
  it supports and, for a simulated one, its default scale. Everything
  else comes from the function's signature: which
  :class:`ExperimentParams` it accepts, their defaults, and what
  :class:`ExperimentContext` passes it (``params``, ``execution``,
  ``duration``, ``seed``, ``shift_at``, ``window``, ``workload``);
  :func:`get_spec` / :func:`experiment_names` / :data:`REGISTRY`
  expose the registry;
* :class:`ExperimentParams` is also the runner's flag set: each field
  carries its help text and CLI type, and the runner adds one flag per
  field;
* :func:`run` — the programmatic entry point: validates overrides against
  the spec, resolves the engine against the capability set (raising
  :class:`~repro.errors.CapabilityError` with the gate reason when an
  unsupported engine is requested), executes the builder and wraps the
  figure in an :class:`ExperimentResult` that carries full provenance
  (scenario parameters, engine, seed, wall-clock, package version, and
  whether the figure was computed or read from the artifact store).

With an active store (:mod:`repro.store`) a simulated run is a lookup
first: its finished figure is one ``replicate`` row, keyed by
:func:`_replicate_inputs`, and a hit renders it without importing numpy,
the kernel or the planner — this module and the figure modules import
them only inside the functions that compute.

The CLI (:mod:`repro.experiments.runner`) consumes only this registry::

    from repro.experiments.api import run

    result = run("sim", engine="vectorized", duration=120.0)
    print(result.render())
    result.save("out/", fmt="json")     # provenance-stamped export
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from numbers import Real
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

import repro
from repro import obs
from repro.obs.clock import perf_counter
from repro.analysis.parameters import ScenarioParameters
from repro.errors import CapabilityError, ParameterError
from repro.experiments import figures, sweeps, tables
from repro.experiments.export import figure_from_payload, figure_payload
from repro.experiments.figures import FigureSeries
from repro.experiments.tables import TableSeries
from repro.experiments.scenario import (
    ENGINES,
    SIMULATION_SCALE,
    paper_scenario,
    resolve_engine,
    simulation_scenario,
)

if TYPE_CHECKING:
    from repro.experiments.execution import Execution

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
#: out of the figure's artifact key by :func:`_replicate_inputs`, so a
#: stored figure is reused no matter how many workers produced it, where
#: it was stored or how many sibling seeds ran with it. Adding a field
#: here without popping it (or vice versa) fails tests/test_invariants.py.
EXECUTION_ONLY = frozenset({"jobs", "store", "replicates"})


def _option(help: str, **flag: object):
    """An :class:`ExperimentParams` field and its runner flag: ``help``
    and the other ``argparse.add_argument`` keywords ride in the field's
    metadata, and the runner adds one ``--<name>`` flag per field."""
    return field(default=None, metadata={"help": help, **flag})


@dataclass(frozen=True)
class ExperimentParams:
    """The typed parameter set an experiment can accept.

    Every field is optional and is also the runner flag of the same name
    (``shift_at`` -> ``--shift-at``). Which fields an experiment accepts,
    and their defaults, come from its figure function's signature
    (:class:`ExperimentSpec`). ``None`` means "not set": the figure
    function's own default applies (e.g. ``shift_at`` defaults to half
    the duration in the adaptivity experiment).
    """

    engine: Optional[str] = _option(
        "simulation engine for the simulated experiments (default: "
        "each experiment's own default; unsupported requests fail)",
        choices=ENGINES,
    )
    duration: Optional[float] = _option(
        "simulated duration override in rounds", type=float
    )
    seed: Optional[int] = _option("simulation seed override", type=int)
    scale: Optional[float] = _option(
        "scenario scale relative to Table 1 (simulated experiments)",
        type=float,
    )
    shift_at: Optional[float] = _option(
        "round of the first workload shift (adaptivity experiments; "
        "default: half the duration)",
        type=float,
        metavar="ROUND",
    )
    window: Optional[float] = _option(
        "hit-rate window in rounds (adaptivity experiments; default: a "
        "twelfth of the duration)",
        type=float,
        metavar="ROUNDS",
    )
    #: Workload model preset (repro.workloads.WORKLOAD_MODEL_NAMES, or
    #: ``trace:<path>`` for a recorded trace).
    workload: Optional[str] = _option(
        "workload model for experiments that accept one (stationary, "
        "rank-swap, gradual-drift, flash-crowd, diurnal, or "
        "trace:<path> to replay a recorded query trace)",
        metavar="MODEL",
    )
    #: Run the experiment over this many consecutive seeds and aggregate
    #: the series with confidence intervals (repro.experiments.stats).
    replicates: Optional[int] = _option(
        "run N consecutive seeds and report seed means with confidence "
        "intervals (simulated experiments)",
        type=int,
        metavar="N",
    )
    #: Worker processes for the independent units inside one run
    #: (replicate seeds, sweep cells, per-strategy kernel runs):
    #: 1 = sequential (default), 0 = one worker per CPU, N = pool of N.
    jobs: Optional[int] = _option(
        "worker processes for an experiment's independent units "
        "(replicate seeds, sweep cells, per-strategy runs), each started "
        "on a CPU of its own; default 1, 0 = one per CPU; on 2 CPUs a "
        "sweep gains from about --scale 6 up",
        type=int,
        metavar="N",
    )
    #: Artifact-store selection for this run (``repro.store``): a path
    #: opens/creates that SQLite store; the sentinel ``"none"`` disables
    #: all store traffic (masking ``REPRO_STORE``); ``None`` (default)
    #: keeps the process-wide active store, if any. The runner pairs
    #: ``--store`` with ``--no-store`` (= ``"none"``).
    store: Optional[str] = _option(
        "SQLite artifact store for calibrations, sweep cells and "
        "finished figures (resumable runs; a repeated run is a lookup); "
        "defaults to the REPRO_STORE environment variable, if set",
        metavar="PATH",
    )

    def __post_init__(self) -> None:
        # A boolean is not a number here, as in errors.require_finite.
        for name in ("duration", "scale", "shift_at", "window"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ParameterError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ParameterError(f"{name} must be > 0, got {value}")
        for name in ("seed", "replicates", "jobs"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ParameterError(
                    f"{name} must be an integer, not a boolean, got {value!r}"
                )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if self.seed is not None and self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
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


#: Names :func:`run` takes as overrides.
PARAM_NAMES = frozenset(f.name for f in dataclass_fields(ExperimentParams))

#: Builder parameters :meth:`ExperimentContext.run` fills by name:
#: ``params`` gets the scenario, ``execution`` the :class:`Execution`,
#: and the rest the :class:`ExperimentParams` field of the same name —
#: every field but those a run reaches otherwise (``engine``/``jobs``
#: through the execution, ``scale`` through the scenario, ``store`` and
#: ``replicates`` through :func:`run`).
BINDINGS = ("params", "execution") + tuple(
    f.name
    for f in dataclass_fields(ExperimentParams)
    if f.name not in EXECUTION_ONLY | {"engine", "scale"}
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
    def seed(self) -> int:
        return self.params.seed if self.params.seed is not None else 0

    @property
    def execution(self) -> "Execution":
        """How this run's cells execute — the single argument simulated
        figures take for engine and workers."""
        from repro.experiments.execution import Execution

        jobs = self.params.jobs
        return Execution(engine=self.engine, jobs=1 if jobs is None else jobs)

    def run(self) -> FigureSeries:
        """One builder invocation — the unit shape
        :func:`repro.fastsim.parallel.fan_out` runs.

        Each of the builder's :data:`BINDINGS` parameters gets its value;
        one left at ``None`` keeps the builder's own default. A context
        pickles by reference for everything heavy: the spec's builder is
        a module-level function, so a spawned worker re-imports its
        defining module, and the scenario/params ride along as small
        frozen dataclasses.
        """
        arguments = {}
        for name in self.spec.arguments:
            if name == "params":
                value = self.scenario
            elif name == "execution":
                value = self.execution
            else:
                value = getattr(self.params, name)
            if value is not None:
                arguments[name] = value
        return self.spec.builder(**arguments)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, capabilities, defaults.

    The builder's signature is the rest of the declaration. Its
    :data:`BINDINGS` parameters are what :meth:`ExperimentContext.run`
    passes; the :class:`ExperimentParams` fields among them, with a
    default that is not ``None``, are the spec's ``defaults``.
    ``accepts`` is those fields, plus ``engine`` and ``jobs`` when it
    takes an ``execution``, plus ``scale``, ``store`` and ``replicates``
    for a simulated experiment — except ``replicates`` for a builder
    returning a :class:`~repro.experiments.tables.TableSeries`, whose
    rows a seed mean cannot carry. The signature is read, not evaluated:
    its annotations name the execution layer, which loads numpy.
    """

    name: str
    title: str
    kind: str
    builder: Callable[..., FigureSeries]
    #: Engines this experiment supports. Empty for analytical experiments
    #: (there is nothing to simulate); the first entry is the default.
    engines: tuple[str, ...] = ()
    #: Why the capability set is restricted (shown in error messages and
    #: ``--list`` when not every engine is supported).
    gate_reason: str = ""
    #: Scenario scale of a simulated run that sets none (Table 1 = 1.0).
    scale: Optional[float] = None
    #: The builder's :data:`BINDINGS` parameters, in signature order.
    arguments: tuple[str, ...] = field(init=False)
    #: Which :class:`ExperimentParams` fields :func:`run` may override.
    accepts: frozenset = field(init=False)
    defaults: ExperimentParams = field(init=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").isalnum():
            raise ParameterError(
                f"experiment name must be a non-empty slug, got {self.name!r}"
            )
        if self.kind not in KINDS:
            raise ParameterError(
                f"unknown experiment kind {self.kind!r}; expected one of {KINDS}"
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
        signature = inspect.signature(self.builder)
        parameters = signature.parameters
        unknown = [
            name
            for name, parameter in parameters.items()
            if name not in BINDINGS and parameter.default is parameter.empty
        ]
        if unknown:
            raise ParameterError(
                f"experiment {self.name!r} builder takes unknown parameters "
                f"{unknown}; it can be given {list(BINDINGS)}"
            )
        arguments = tuple(name for name in parameters if name in BINDINGS)
        accepts = set(arguments) & PARAM_NAMES
        defaults = {
            name: parameters[name].default
            for name in accepts
            if parameters[name].default not in (None, parameters[name].empty)
        }
        if "execution" in arguments:
            accepts |= {"engine", "jobs"}
        if self.kind == SIMULATED:
            accepts |= {"scale", "store"}
            returns = signature.return_annotation
            if returns != "TableSeries" and not (
                isinstance(returns, type) and issubclass(returns, TableSeries)
            ):
                accepts.add("replicates")
        object.__setattr__(self, "arguments", arguments)
        object.__setattr__(self, "accepts", frozenset(accepts))
        object.__setattr__(
            self, "defaults", ExperimentParams(scale=self.scale, **defaults)
        )

    # ------------------------------------------------------------------
    @property
    def default_engine(self) -> Optional[str]:
        return self.engines[0] if self.engines else None

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


#: Read-only live view of the registry (mutation goes via register).
REGISTRY: Mapping[str, ExperimentSpec] = MappingProxyType(_REGISTRY)


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
    scale: Optional[float] = None,
):
    """Register a figure function as an experiment; returns it unchanged.

    Its signature declares the rest (:class:`ExperimentSpec`)::

        experiment("sim", "Sec. 5.2 ...", SIMULATED,
                   engines=("event", "vectorized"),
                   scale=SIMULATION_SCALE)(figures.simulation_comparison)

    registers ``sim`` with the ``duration``/``seed`` defaults of
    ``simulation_comparison`` and accepts ``duration``, ``seed``,
    ``engine``, ``jobs``, ``scale``, ``store`` and ``replicates``.
    """

    def decorate(
        builder: Callable[..., FigureSeries],
    ) -> Callable[..., FigureSeries]:
        register(
            ExperimentSpec(
                name=name,
                title=title,
                kind=kind,
                builder=builder,
                engines=tuple(engines),
                gate_reason=gate_reason,
                scale=scale,
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
    #: The resolved parameter values the spec accepted, but for ``engine``
    #: (it has its own field) and ``store``: where a figure is kept is not
    #: what it is, and :attr:`source` says whether it came from a store.
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
    #: ``"store"`` when every figure of the run was read from the active
    #: artifact store, ``"computed"`` otherwise.
    source: str = "computed"

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
            "source": self.source,
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
                    figure, replication, source = _execute(ctx)
                obs.report_gc()
                obs.sample_peak_rss()
            telemetry = local.snapshot()
        else:
            figure, replication, source = _execute(ctx)
    wall_clock = perf_counter() - started
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
            if key not in ("engine", "store")
        },
        seed=merged.seed,
        wall_clock_seconds=wall_clock,
        version=repro.__version__,
        replication=replication,
        telemetry=telemetry,
        source=source,
    )


#: :func:`run` under the name the :mod:`repro.experiments` package exports.
run_experiment = run


@contextlib.contextmanager
def _store_scope(setting: Optional[str]) -> Iterator[None]:
    """The artifact-store context for one run's ``store`` parameter.

    ``None`` leaves the process-wide active store (``REPRO_STORE`` or a
    programmatic :func:`repro.store.using_store`) in effect;
    ``"none"`` is the explicit escape hatch disabling all store traffic
    for the run; any other value opens (creating/migrating as needed)
    the SQLite store at that path for the run's duration and closes it
    when the run ends, so no ``-wal`` or ``-shm`` file outlives the run.
    """
    if setting is None:
        yield
        return
    from repro.store import Store, using_store

    if setting == "none":
        with using_store(None):
            yield
        return
    with Store(setting) as store, using_store(store):
        yield


def _execute(
    ctx: ExperimentContext,
) -> tuple[FigureSeries, Optional[dict[str, object]], str]:
    """Build the figure: ``(figure, replication, source)``.

    A simulated run with an active store reads each seed's finished
    figure first and computes only the seeds it lacks, saving each as it
    lands: a repeated run is one lookup, and an interrupted replication
    resumes where it stopped (a figure is saved only once built, so an
    interrupted seed resumes cell by cell). ``jobs > 1`` fans a
    replication's seeds over the process pool; each child context then
    runs its own cells in-process (jobs=1) — no nested pools.
    """
    replicates = ctx.params.replicates or 1
    if ctx.spec.kind == ANALYTICAL:
        return ctx.run(), None, "computed"
    from repro.store.store import active_store

    seeds = tuple(ctx.seed + i for i in range(replicates))
    contexts = [ctx]
    if replicates > 1:
        contexts = [
            replace(ctx, params=replace(ctx.params, seed=seed, jobs=1))
            for seed in seeds
        ]
    store = active_store()
    figures_by_seed: list[Optional[FigureSeries]] = [None] * len(contexts)
    keys: list[str] = []
    if store is not None:
        from repro.store.keys import content_key

        for index, context in enumerate(contexts):
            keys.append(content_key("replicate", _replicate_inputs(context)))
            payload = store.load("replicate", keys[index])
            if payload is not None:
                figures_by_seed[index] = figure_from_payload(payload)
    pending = [i for i, fig in enumerate(figures_by_seed) if fig is None]

    def _finish(position: int, figure: FigureSeries) -> None:
        index = pending[position]
        figures_by_seed[index] = figure
        if store is not None:
            store.save("replicate", keys[index], figure_payload(figure))

    source = "computed" if pending else "store"
    if replicates == 1:
        if pending:
            _finish(0, ctx.run())
        return figures_by_seed[0], None, source
    if pending:
        from repro.fastsim import parallel

        parallel.fan_out(
            [contexts[i] for i in pending],
            parallel.resolve_worker_count(ctx.execution.jobs),
            _finish,
            "experiment.replicates",
            done=len(contexts) - len(pending),
        )
    return (*_aggregate_replicates(figures_by_seed, seeds), source)


def _replicate_inputs(ctx: "ExperimentContext") -> dict[str, object]:
    """Content-key inputs of one seed's finished figure.

    ``jobs`` and ``store`` are execution detail, and ``replicates`` is
    sibling count — none of them can change this seed's figure, so they
    stay out of the key: a plain run at seed ``s`` and seed ``s`` of a
    ``replicates=N`` run share one row, and a ``replicates=5`` rerun
    reuses the three a ``replicates=3`` run stored. Everything that *can*
    change the figure goes in: experiment, engine, scenario, the per-seed
    parameter set with the seed always explicit, and for a
    ``trace:<path>`` workload the sha-256 of the trace file's bytes (the
    path alone would serve a rewritten trace's stale figure). The
    envelope adds ``repro.__version__`` and the ``replicate`` schema rev
    on top.
    """
    params = ctx.params.to_dict()
    params.pop("jobs", None)
    params.pop("store", None)
    params.pop("replicates", None)
    params["seed"] = ctx.seed
    inputs: dict[str, object] = {
        "experiment": ctx.spec.name,
        "engine": ctx.engine,
        "scenario": ctx.scenario,
        "params": params,
    }
    workload = ctx.params.workload
    if workload is not None and workload.startswith("trace:"):
        path = workload[len("trace:") :]
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ParameterError(f"cannot read trace {path!r}: {exc}") from exc
        inputs["trace_sha256"] = hashlib.sha256(data).hexdigest()
    return inputs


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
    from repro.experiments.stats import CONFIDENCE, summarise

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
    ci_label = f"ci{int(round(CONFIDENCE * 100))}"
    for name in first.series:
        samples_by_seed = [fig.series_of(name) for fig in figures]
        per_seed[name] = [list(values) for values in samples_by_seed]
        means: list[float] = []
        halfwidths: list[float] = []
        for i in range(len(first.x_values)):
            summary = summarise(name, [values[i] for values in samples_by_seed])
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
        "confidence": CONFIDENCE,
        "per_seed": per_seed,
    }
    return figure, replication


# ----------------------------------------------------------------------
# The built-in experiment suite: each figure function is the experiment
# (registration order is presentation order)
# ----------------------------------------------------------------------
experiment(
    "table1", "Table 1 - parameters of the sample scenario", ANALYTICAL
)(tables.table1_series)
experiment(
    "fig1", "Fig. 1 - total cost vs query frequency", ANALYTICAL
)(figures.figure1)
experiment(
    "fig2", "Fig. 2 - savings of ideal partial indexing", ANALYTICAL
)(figures.figure2)
experiment(
    "fig3", "Fig. 3 - indexed fraction and pIndxd", ANALYTICAL
)(figures.figure3)
experiment(
    "fig4", "Fig. 4 - savings with the selection algorithm", ANALYTICAL
)(figures.figure4)
experiment(
    "keyttl", "Sec. 5.1.1 - keyTtl estimation-error sensitivity", ANALYTICAL
)(figures.keyttl_sensitivity)
experiment(
    "optimal", "Extension - heuristics vs exact optima", ANALYTICAL
)(figures.heuristic_vs_optimal)
experiment(
    "sim",
    "Sec. 5.2 - simulated strategies vs the analytical model",
    SIMULATED,
    engines=("event", "vectorized"),
    scale=SIMULATION_SCALE,
)(figures.simulation_comparison)
# adaptivity is a single run at replicates=1; its "jobs" capability only
# parallelizes the replicate seeds (handled by run()).
experiment(
    "adaptivity",
    "Sec. 5.2 - hit rate under a query-distribution shift",
    SIMULATED,
    engines=("event", "vectorized"),
    scale=SIMULATION_SCALE,
)(figures.adaptivity_experiment)
experiment(
    "adaptivity-tracking",
    "Extension - selection vs partialIdeal oracle across workload models",
    SIMULATED,
    engines=("vectorized", "event"),
    scale=SIMULATION_SCALE,
)(figures.adaptivity_tracking)
experiment(
    "adaptivity-lag",
    "Extension - per-model convergence lag after the first workload shift",
    SIMULATED,
    engines=("vectorized", "event"),
    scale=SIMULATION_SCALE,
)(figures.adaptivity_lag_table)
experiment(
    "churn",
    "Extension - selection algorithm under churn",
    SIMULATED,
    engines=("event", "vectorized"),
    scale=SIMULATION_SCALE,
)(figures.churn_experiment)
experiment(
    "staleness",
    "Extension - index staleness without proactive updates",
    SIMULATED,
    engines=("event", "vectorized"),
    scale=0.02,
)(figures.staleness_experiment)
experiment(
    "simfig1",
    "Fig. 1 regenerated in simulation",
    SIMULATED,
    engines=("event", "vectorized"),
    scale=0.02,
)(figures.simulated_figure1)
experiment(
    "sweep",
    "Sweep - keyTtl x alpha x fQry grid at paper scale (fastsim)",
    SIMULATED,
    engines=("vectorized",),
    gate_reason=(
        "the grid runs Table 1 at full scale (and beyond, via --scale); "
        "only the vectorized batch kernel is tractable there"
    ),
    scale=1.0,
)(sweeps.default_grid)
experiment(
    "sweep-optimal",
    "Sweep - optimal keyTtl cell per alpha|fQry slice (fastsim)",
    SIMULATED,
    engines=("vectorized",),
    gate_reason=(
        "derived from the paper-scale sweep grid; only the vectorized "
        "batch kernel is tractable there"
    ),
    scale=1.0,
)(sweeps.default_optimal_cells)
