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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro import obs
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.experiments.heap import long_lived
from repro.experiments.scenario import DEFAULT_ENGINE, resolve_engine
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import StrategyReport
from repro.sim.rng import RandomStreams
from repro.workloads.models import WorkloadModel

if TYPE_CHECKING:
    from repro.fastsim.parallel import FastSimJob

__all__ = ["Cell", "CellWorkload", "Execution"]


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

    def run(self) -> StrategyReport:
        """The event-engine job: build the substrate, run, report."""
        # One span entry per cell, aggregated over the figure's cells; the
        # strategy reports its build, prepare and query-loop phases under
        # it as durations.
        with obs.span("strategy.run"), long_lived(self._substrate) as strategy:
            return strategy.run(self.duration, window=self.window)

    def _substrate(self) -> "SimulatedStrategy":
        """The strategy on its finished substrate: content placed, index
        preloaded, nothing queried yet."""
        from repro.pdht.strategies import SimulatedStrategy

        workload = None
        if self.workload is not None:
            # The very generator the substrate's own RandomStreams(seed)
            # hands out under this name; nothing else draws from it.
            workload = self._stream(
                RandomStreams(self.seed).get(self.workload.stream)
            )
        return SimulatedStrategy(
            self.params, config=self.config, strategy=self.strategy,
            seed=self.seed, churn=self.churn, workload=workload,
            content_refresh_period=self.content_refresh_period,
        )

    def _stream(self, rng: np.random.Generator) -> BatchWorkload:
        """This cell's :attr:`workload` model, drawing from ``rng``."""
        return self.workload.model.build(
            ZipfDistribution(self.params.n_keys, self.params.alpha), rng
        )

    def fastsim_job(self) -> FastSimJob:
        """The vectorized-engine job: this cell as kernel arguments."""
        from repro.fastsim.parallel import FastSimJob

        workload = None
        if self.workload is not None:
            workload = self._stream(
                np.random.default_rng(
                    np.random.SeedSequence(self.workload.entropy)
                )
            )
        return FastSimJob(
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

    def execute(self, cells: Sequence[Cell]) -> list[StrategyReport]:
        """Run every cell on this run's engine; reports in cell order."""
        if not self.vectorized:
            return [cell.run() for cell in cells]
        # Loaded here, not at import: an event run needs no kernel.
        from repro.fastsim import parallel

        return parallel.run_many(
            [cell.fastsim_job() for cell in cells], workers=self.jobs
        )
