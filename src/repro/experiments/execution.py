"""How a simulated experiment executes: ``cells -> jobs -> execute -> reduce``.

Every simulated figure is a list of independent strategy runs reduced to
a :class:`~repro.experiments.figures.FigureSeries`. A figure body lists
its runs as engine-agnostic :class:`Cell` specs and hands them to
:meth:`Execution.execute`, which owns the one decision of *how* they run:

* on the vectorized engine every cell becomes a
  :class:`~repro.fastsim.parallel.FastSimJob` and the batch *always* goes
  through :func:`~repro.fastsim.parallel.run_many` — cost resolution in
  the calling process, store read-through (each cell is content-keyed, so
  a rerun recomputes nothing), and the process pool when more than one
  worker is asked for; ``jobs=1`` is that fan-out's in-process case, not
  a separate code path;
* on the event engine a cell is its own job kind — same
  ``.run() -> report`` shape, un-keyed and in-process.

:class:`Execution` is built once per run from
:class:`~repro.experiments.api.ExperimentParams`
(:attr:`ExperimentContext.execution`); a figure function takes it as its
single ``execution`` argument, so an execution-only knob is a field here,
an ``ExperimentParams`` field and a CLI flag — not a keyword threaded
through every figure signature.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.experiments.scenario import DEFAULT_ENGINE, resolve_engine
from repro.fastsim import parallel
from repro.fastsim.compare import probe_substrates_built, staleness_probe_event
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import StrategyReport
from repro.workloads.models import WorkloadModel

__all__ = ["Cell", "CellWorkload", "Execution", "StalenessReading"]

_T = TypeVar("_T")


@contextmanager
def _long_lived(build: Callable[[], _T]) -> Iterator[_T]:
    """Build a large object graph that lives exactly as long as the
    ``with`` body, keeping the cyclic collector off it for that long.

    An event substrate is ~400k containers that reference counting alone
    would manage, allocated in one burst and then only read. Left alone,
    the collector walks the growing graph hundreds of times while it is
    built and again in every older-generation pass of the query loop. So:
    collect what the previous substrate left behind (it is cyclic and
    would otherwise sit beside this one), build with automatic collection
    off, and freeze the result out of every later pass; the body's own
    garbage is collected as usual. On every way out the heap is unfrozen
    and automatic collection is as the caller had it — a caller that had
    switched it off never sees it on.
    """
    was_enabled = gc.isenabled()
    with obs.span("strategy.collect"):
        gc.collect()
    gc.disable()
    try:
        built = build()
        gc.freeze()
        if was_enabled:
            gc.enable()
        yield built
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def _collect_probe_substrates() -> Callable[[], None]:
    """What to do once costs are resolved: collect what resolving them
    left behind.

    A cost that no cache holds and no formula gives is measured on an
    event substrate, and a dead substrate is cyclic (its simulation's
    recurring events refer back to it): left to the automatic collector
    it is still resident when the kernels allocate, and the run's peak
    memory is the two together. The returned callback runs one full
    collection if :func:`~repro.fastsim.compare.probe_substrates_built`
    has moved since this call, so a run that built nothing walks no heap.
    """
    built = probe_substrates_built()

    def collect() -> None:
        if probe_substrates_built() != built:
            with obs.span("calibration.collect"):
                gc.collect()

    return collect


class StalenessReading(NamedTuple):
    """What the event engine's staleness probe measures, under the two
    report attribute names the staleness figure reads."""

    stale_hit_fraction: float
    hit_rate: float


@dataclass(frozen=True)
class CellWorkload:
    """A cell's non-default query stream: the model, and the generator
    each engine has always seeded it from (pinned captures fix both)."""

    model: WorkloadModel
    #: Event engine: the name of the run's own substrate stream.
    stream: str
    #: Kernel: the ``SeedSequence`` entropy words.
    entropy: tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    """One strategy run of a figure, independent of the engine running it.

    ``workload`` names a non-default query stream once, as data; either
    engine builds it with the same ``model.build``.
    """

    params: ScenarioParameters
    config: PdhtConfig
    duration: float
    strategy: str = "partialSelection"
    seed: int = 0
    churn: Optional[ChurnConfig] = None
    window: float = 0.0
    #: Refresh all content every this many rounds (staleness measurement).
    content_refresh_period: Optional[float] = None
    workload: Optional[CellWorkload] = None

    def run(self) -> StrategyReport | StalenessReading:
        """The event-engine job: build the substrate, run, report."""
        if self.content_refresh_period is not None:
            return StalenessReading(
                *staleness_probe_event(
                    self.params, self.config, self.duration,
                    self.content_refresh_period, self.seed,
                )
            )
        # One span entry per cell, aggregated over the figure's cells; the
        # strategy reports its build, prepare and query-loop phases under
        # it as durations.
        with obs.span("strategy.run"), _long_lived(self._substrate) as strategy:
            return strategy.run(self.duration, window=self.window)

    def _substrate(self) -> "SimulatedStrategy":
        """The strategy on its finished substrate: content placed, index
        preloaded, nothing queried yet."""
        from repro.pdht.strategies import SimulatedStrategy

        strategy = SimulatedStrategy(
            self.params, config=self.config, strategy=self.strategy,
            seed=self.seed, churn=self.churn,
        )
        if self.workload is not None:
            strategy.workload = self._stream(
                strategy.network.streams.get(self.workload.stream)
            )
        strategy.prepare()
        return strategy

    def _stream(self, rng: np.random.Generator) -> BatchWorkload:
        """This cell's :attr:`workload` model, drawing from ``rng``."""
        return self.workload.model.build(
            ZipfDistribution(self.params.n_keys, self.params.alpha), rng
        )

    def fastsim_job(self) -> parallel.FastSimJob:
        """The vectorized-engine job: this cell as kernel arguments."""
        workload = None
        if self.workload is not None:
            workload = self._stream(
                np.random.default_rng(
                    np.random.SeedSequence(self.workload.entropy)
                )
            )
        return parallel.FastSimJob(
            params=self.params,
            strategy=self.strategy,
            seed=self.seed,
            duration=self.duration,
            config=self.config,
            workload=workload,
            churn=self.churn,
            content_refresh_period=self.content_refresh_period,
            window=self.window,
        )


@dataclass(frozen=True)
class Execution:
    """The execution choices of one run: engine and workers. The engine
    name is normalised at construction."""

    engine: str = DEFAULT_ENGINE
    #: Worker processes for the run's independent cells: 1 = in-process,
    #: 0 = one per CPU, N = pool of N (vectorized engine).
    jobs: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", resolve_engine(self.engine))

    @property
    def vectorized(self) -> bool:
        return self.engine == "vectorized"

    def execute(
        self, cells: Sequence[Cell]
    ) -> list[StrategyReport | StalenessReading]:
        """Run every cell on this run's engine; reports in cell order."""
        if not self.vectorized:
            return [cell.run() for cell in cells]
        return parallel.run_many(
            [cell.fastsim_job() for cell in cells],
            workers=self.jobs,
            after_resolve=_collect_probe_substrates(),
        )
