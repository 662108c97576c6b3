"""Aggregate metrics of a batch-simulation run.

:class:`FastSimReport` carries the same aggregates as the event engine's
:class:`~repro.pdht.strategies.StrategyReport` (queries, hits, per-category
message totals, windowed hit-rate/index-size series, stale hits, the
selection overheads: insertions, reinsertions, cold misses, unresolved
queries) plus fastsim-only detail (gateway discoveries, churn
transitions, wall-clock speed). It *is* a
:class:`~repro.pdht.strategies.StrategyReport`, so figure generators
consume either engine's output through one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pdht.strategies import StrategyReport, WindowRecorder
from repro.sim.metrics import MessageCategory

__all__ = ["WindowRecorder", "FastSimReport"]


@dataclass
class FastSimReport(StrategyReport):
    """Measured outcome of one vectorized strategy run.

    Subclasses the event engine's :class:`~repro.pdht.strategies.StrategyReport`
    (same aggregates, same metric properties — one definition of hit rate
    and msg/s for both engines) and adds fastsim-only detail.
    """

    engine: str = "vectorized"
    gateway_discoveries: int = 0
    churn_transitions: int = 0
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
