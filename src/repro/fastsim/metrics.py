"""Aggregate metrics of a batch-simulation run.

:class:`FastSimReport` carries the same aggregates as the event engine's
:class:`~repro.pdht.strategies.StrategyReport` (queries, hits, per-category
message totals, windowed hit-rate/index-size series) plus fastsim-only
detail (miss attribution, stale hits, wall-clock speed). It *is* a
:class:`~repro.pdht.strategies.StrategyReport`, so figure generators
consume either engine's output through one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.pdht.strategies import StrategyReport
from repro.sim.metrics import MessageCategory

__all__ = ["WindowRecorder", "FastSimReport"]


class WindowRecorder:
    """Accumulates per-window hit/query counts into report series."""

    def __init__(self, window: float) -> None:
        self.window = window
        self.queries = 0
        self.hits = 0
        self.next_at = window
        self.hit_rate_series: list[tuple[float, float]] = []
        self.index_size_series: list[tuple[float, int]] = []

    @property
    def enabled(self) -> bool:
        return self.window > 0

    def record(self, queries: int, hits: int) -> None:
        self.queries += queries
        self.hits += hits

    def _close(self, elapsed: float, index_size: Callable[[], int]) -> None:
        rate = self.hits / self.queries if self.queries else 0.0
        self.hit_rate_series.append((elapsed, rate))
        self.index_size_series.append((elapsed, index_size()))
        self.queries = self.hits = 0

    def maybe_close(self, elapsed: float, index_size: Callable[[], int]) -> None:
        """Close the window at ``elapsed`` rounds since run start.

        ``index_size`` is a thunk: sizing the index costs O(n_keys), so it
        is only evaluated when a window actually closes.
        """
        if not self.enabled or elapsed < self.next_at:
            return
        self._close(elapsed, index_size)
        self.next_at += self.window

    def flush(self, elapsed: float, index_size: Callable[[], int]) -> None:
        """Close the trailing partial window at the end of a run.

        When ``duration`` is not a multiple of ``window`` the final
        ``duration % window`` rounds never reach ``next_at``; without this
        flush their queries silently vanish from ``hit_rate_series``. A
        run that ends exactly on a window boundary already closed it in
        :meth:`maybe_close` and is left untouched.
        """
        if not self.enabled or elapsed <= self.next_at - self.window:
            return
        self._close(elapsed, index_size)


@dataclass
class FastSimReport(StrategyReport):
    """Measured outcome of one vectorized strategy run.

    Subclasses the event engine's :class:`~repro.pdht.strategies.StrategyReport`
    (same aggregates, same metric properties — one definition of hit rate
    and msg/s for both engines) and adds fastsim-only detail.
    """

    engine: str = "vectorized"
    insertions: int = 0
    reinsertions: int = 0
    cold_misses: int = 0
    unresolved: int = 0
    gateway_discoveries: int = 0
    churn_transitions: int = 0
    #: Index hits whose payload version predated the key's latest content
    #: refresh (the staleness experiment's numerator).
    stale_hits: int = 0
    #: Content-refresh sweeps applied by ``content_refresh_period``.
    content_refreshes: int = 0
    key_ttl: float = 0.0
    final_index_size: int = 0
    #: Wall-clock seconds the kernel spent (for speedup reporting).
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    @property
    def simulated_queries_per_second(self) -> float:
        """Throughput of the kernel itself (queries / wall-clock second)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.queries / self.elapsed_seconds

    @property
    def stale_hit_fraction(self) -> float:
        """Fraction of index hits that served an outdated payload."""
        if self.index_hits == 0:
            return 0.0
        return self.stale_hits / self.index_hits
