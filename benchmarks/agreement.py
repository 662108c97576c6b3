"""Cross-engine agreement: run the same scenario through both engines.

:func:`compare_engines` / :func:`compare_engines_staleness` run one
scenario through the event engine and the vectorized kernel over several
seeds (with churn below ``availability`` 1, with content refresh for
staleness) and report the relative disagreement of the aggregate hit
rate, total message cost and (for staleness) the stale hit fraction.
Each seed is one :class:`~repro.experiments.execution.Cell`, the spec
the simulated figures run, through one loop: what agrees here is what
the figures execute.

No experiment reaches this module, so it lives beside the benchmarks
rather than in the package: the agreement property tests and the
``cross_engine_10k`` rows of ``benchmarks/gates.py`` are its callers.
It needs ``src`` on ``sys.path`` (as ``PYTHONPATH=src``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from time import perf_counter
from typing import Optional, Sequence

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError
from repro.experiments.execution import Cell, CellWorkload
from repro.fastsim.compare import (
    calibrate_costs,
    churn_config_for_availability,
)
from repro.fastsim.kernel import PerOpCosts
from repro.fastsim.parallel import resolve_jobs
from repro.pdht.config import PdhtConfig

__all__ = ["EngineAgreement", "compare_engines", "compare_engines_staleness"]


@dataclass
class EngineAgreement:
    """Per-seed aggregates of both engines plus their relative deviation."""

    params: ScenarioParameters
    duration: float
    seeds: tuple[int, ...]
    event_hit_rates: list[float] = field(default_factory=list)
    fast_hit_rates: list[float] = field(default_factory=list)
    event_costs: list[float] = field(default_factory=list)
    fast_costs: list[float] = field(default_factory=list)
    #: Stale-hit fractions (staleness comparisons only; empty otherwise).
    event_staleness: list[float] = field(default_factory=list)
    fast_staleness: list[float] = field(default_factory=list)
    #: Stationary availability of a churn comparison (None without churn).
    availability: Optional[float] = None
    event_seconds: float = 0.0
    fast_seconds: float = 0.0

    @staticmethod
    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def hit_rate_rel_diff(self) -> float:
        """|fast - event| / event, on seed-averaged hit rates."""
        event = self._mean(self.event_hit_rates)
        if event == 0:
            return abs(self._mean(self.fast_hit_rates))
        return abs(self._mean(self.fast_hit_rates) - event) / event

    @property
    def cost_rel_diff(self) -> float:
        """|fast - event| / event, on seed-averaged total messages."""
        event = self._mean(self.event_costs)
        if event == 0:
            return abs(self._mean(self.fast_costs))
        return abs(self._mean(self.fast_costs) - event) / event

    @property
    def staleness_rel_diff(self) -> float:
        """|fast - event| / event, on seed-averaged stale hit fractions."""
        if not self.event_staleness and not self.fast_staleness:
            return 0.0
        event = self._mean(self.event_staleness)
        if event == 0:
            return abs(self._mean(self.fast_staleness))
        return abs(self._mean(self.fast_staleness) - event) / event

    @property
    def speedup(self) -> float:
        """Event-engine wall-clock over fast-path wall-clock."""
        if self.fast_seconds <= 0:
            return float("inf")
        return self.event_seconds / self.fast_seconds

    def agrees(self, tolerance: float = 0.05) -> bool:
        """Within-tolerance on hit rate, total cost and (when measured)
        the stale hit fraction."""
        return (
            self.hit_rate_rel_diff <= tolerance
            and self.cost_rel_diff <= tolerance
            and self.staleness_rel_diff <= tolerance
        )

    def summary(self) -> str:
        text = (
            f"hit rate: event {self._mean(self.event_hit_rates):.4f} vs "
            f"fast {self._mean(self.fast_hit_rates):.4f} "
            f"({100 * self.hit_rate_rel_diff:.2f}% off); "
            f"total msgs: event {self._mean(self.event_costs):.0f} vs "
            f"fast {self._mean(self.fast_costs):.0f} "
            f"({100 * self.cost_rel_diff:.2f}% off)"
        )
        if self.event_staleness or self.fast_staleness:
            text += (
                f"; staleness: event {self._mean(self.event_staleness):.4f} "
                f"vs fast {self._mean(self.fast_staleness):.4f} "
                f"({100 * self.staleness_rel_diff:.2f}% off)"
            )
        if self.availability is not None:
            text += f"; availability {self.availability:g}"
        return text + f"; speedup {self.speedup:.1f}x"


def _agreement(
    agreement: EngineAgreement,
    cells: Sequence[Cell],
    costs: Optional[PerOpCosts] = None,
) -> EngineAgreement:
    """Run every cell through both engines and record what each measured.

    The event side is :meth:`~repro.experiments.execution.Cell.run`; the
    kernel side is the cell's own job with ``costs`` (or, when None, the
    kernel's default policy) and its churn costs resolved as
    :func:`~repro.fastsim.parallel.run_many` resolves them, before the
    kernel's timer starts: below the calibration limit that runs an
    event-engine probe, and ``speedup`` should measure the simulations,
    not the (cached, one-off) calibration.
    """
    for cell in cells:
        started = perf_counter()
        event = cell.run()
        agreement.event_seconds += perf_counter() - started

        (job,) = resolve_jobs([dc_replace(cell.fastsim_job(), costs=costs)])
        started = perf_counter()
        fast = job.run()
        # Kernel construction included, like the event side.
        agreement.fast_seconds += perf_counter() - started

        agreement.event_hit_rates.append(event.hit_rate)
        agreement.fast_hit_rates.append(fast.hit_rate)
        if cell.content_refresh_period is None:
            agreement.event_costs.append(event.total_messages)
            agreement.fast_costs.append(fast.total_messages)
        else:
            agreement.event_staleness.append(event.stale_hit_fraction)
            agreement.fast_staleness.append(fast.stale_hit_fraction)
    return agreement


def compare_engines(
    params: ScenarioParameters,
    config: Optional[PdhtConfig] = None,
    duration: float = 240.0,
    seeds: Sequence[int] = (0, 1, 2),
    costs: Optional[PerOpCosts] = None,
    model=None,
    availability: float = 1.0,
) -> EngineAgreement:
    """Run the selection algorithm through both engines and compare.

    Each seed is one ``partialSelection``
    :class:`~repro.experiments.execution.Cell` — the spec every simulated
    figure runs — on the event engine and on the kernel, the latter with
    ``costs`` calibrated off the seed-0 substrate unless given.
    ``model`` swaps the stationary stream for a
    :class:`~repro.workloads.models.WorkloadModel` on both engines.

    Below ``availability`` 1 both engines run under
    :func:`~repro.fastsim.compare.churn_config_for_availability`: the event engine with a real
    :class:`~repro.net.churn.ChurnProcess` (exponential sessions and gaps at
    real-valued times, applied by the round clock up to each round), the kernel with the
    availability-dependent cost model, calibrated at each seed
    (:func:`~repro.fastsim.compare.churn_costs_for`; churn per-op costs are substrate-realisation
    properties) and driven by ``model`` — the rank-permutation-aware path.
    Agreement on hit rate *and* total cost is the acceptance bar that
    lifted the churn engine gate.
    """
    if not seeds:
        raise ParameterError("need at least one seed")
    churn = churn_config_for_availability(availability)
    config = config or PdhtConfig.from_scenario(params)
    if costs is None:
        costs = calibrate_costs(params, config)
    cells = [
        Cell(
            params, config, duration, seed=seed, churn=churn,
            workload=None if model is None else CellWorkload(
                model, "queries-model", (seed, 0x3037DE1)
            ),
        )
        for seed in seeds
    ]
    agreement = EngineAgreement(
        params=params,
        duration=duration,
        seeds=tuple(seeds),
        availability=None if churn is None else availability,
    )
    return _agreement(agreement, cells, costs)


def compare_engines_staleness(
    params: ScenarioParameters,
    config: Optional[PdhtConfig] = None,
    duration: float = 300.0,
    refresh_period: float = 100.0,
    seeds: Sequence[int] = (0, 1, 2),
    ttl_factor: float = 1.0,
) -> EngineAgreement:
    """Measure the staleness experiment through both engines and compare.

    Each seed is one :class:`~repro.experiments.execution.Cell` with a
    ``content_refresh_period``, which the event engine runs as a
    refreshing :class:`~repro.pdht.strategies.SimulatedStrategy` and the
    kernel as batch version state.
    Agreement on the stale hit fraction (alongside hit rate) is the
    acceptance bar that lifted the staleness engine gate.
    """
    if not seeds:
        raise ParameterError("need at least one seed")
    if ttl_factor <= 0:
        raise ParameterError(f"ttl_factor must be > 0, got {ttl_factor}")
    config = config or PdhtConfig.from_scenario(params)
    config = config.with_ttl(config.key_ttl * ttl_factor)
    cells = [
        Cell(
            params, config, duration, seed=seed,
            content_refresh_period=refresh_period,
        )
        for seed in seeds
    ]
    agreement = EngineAgreement(
        params=params, duration=duration, seeds=tuple(seeds)
    )
    return _agreement(agreement, cells)
