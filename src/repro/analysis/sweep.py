"""Query-frequency sweeps generating the series behind Figures 1-4.

The paper evaluates the model at eight per-peer query frequencies
(one query every 30, 60, 120, 300, 600, 1800, 3600 and 7200 seconds); this
module sweeps those frequencies and packages everything the figures plot:

* Fig. 1 — total msg/s of ``indexAll``, ``noIndex`` and ideal ``partial``;
* Fig. 2 — savings of ideal partial vs both baselines;
* Fig. 3 — index-size fraction and ``pIndxd`` of ideal partial indexing;
* Fig. 4 — savings of the TTL selection algorithm vs both baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.parameters import PAPER_FREQUENCIES, ScenarioParameters
from repro.analysis.selection_model import SelectionModel, SelectionOutcome
from repro.analysis.strategies import StrategyCosts, evaluate_strategies
from repro.errors import ParameterError

__all__ = ["PAPER_FREQUENCIES", "SweepPoint", "FrequencySweep", "sweep_frequencies"]


@dataclass(frozen=True)
class SweepPoint:
    """Everything Figures 1-4 need at one per-peer query frequency."""

    query_freq: float
    strategies: StrategyCosts
    selection: SelectionOutcome


@dataclass(frozen=True)
class FrequencySweep:
    """A full sweep; accessor properties mirror the figures' series."""

    params: ScenarioParameters
    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ParameterError("a sweep needs at least one point")

    # -------------------------------------------------- Fig. 1 series
    @property
    def frequencies(self) -> list[float]:
        return [p.query_freq for p in self.points]

    @property
    def index_all_costs(self) -> list[float]:
        return [p.strategies.index_all for p in self.points]

    @property
    def no_index_costs(self) -> list[float]:
        return [p.strategies.no_index for p in self.points]

    @property
    def partial_costs(self) -> list[float]:
        return [p.strategies.partial for p in self.points]

    # -------------------------------------------------- Fig. 2 series
    @property
    def ideal_savings_vs_index_all(self) -> list[float]:
        return [p.strategies.savings_vs_index_all for p in self.points]

    @property
    def ideal_savings_vs_no_index(self) -> list[float]:
        return [p.strategies.savings_vs_no_index for p in self.points]

    # -------------------------------------------------- Fig. 3 series
    @property
    def index_fractions(self) -> list[float]:
        return [p.strategies.threshold.index_fraction for p in self.points]

    @property
    def p_indexed_values(self) -> list[float]:
        return [p.strategies.threshold.p_indexed for p in self.points]

    # -------------------------------------------------- Fig. 4 series
    @property
    def selection_savings_vs_index_all(self) -> list[float]:
        return [p.selection.savings_vs_index_all for p in self.points]

    @property
    def selection_savings_vs_no_index(self) -> list[float]:
        return [p.selection.savings_vs_no_index for p in self.points]

    @property
    def selection_costs(self) -> list[float]:
        return [p.selection.total_cost for p in self.points]

    def crossover_frequency(self) -> float | None:
        """Frequency where ``indexAll`` starts beating ``noIndex``.

        The all-or-nothing baselines swap places somewhere in the middle of
        the sweep (broadcast is cheap when queries are rare); returns the
        first swept frequency, scanning from rare to busy, at which
        ``indexAll <= noIndex``, or ``None`` if broadcast always wins.
        """
        for point in sorted(self.points, key=lambda p: p.query_freq):
            if point.strategies.index_all <= point.strategies.no_index:
                return point.query_freq
        return None


def sweep_frequencies(
    params: ScenarioParameters,
    frequencies: Sequence[float] | Iterable[float] = PAPER_FREQUENCIES,
) -> FrequencySweep:
    """Evaluate Eq. 11-17 at each per-peer query frequency."""
    points = []
    for freq in frequencies:
        if freq <= 0:
            raise ParameterError(f"query frequencies must be > 0, got {freq}")
        scenario = params.with_query_freq(freq)
        strategies = evaluate_strategies(scenario)
        selection = SelectionModel(
            scenario, key_ttl=strategies.threshold.key_ttl
        ).outcome()
        points.append(
            SweepPoint(query_freq=freq, strategies=strategies, selection=selection)
        )
    return FrequencySweep(params=params, points=tuple(points))
