"""The two realisations of a :class:`~repro.workloads.models.WorkloadModel`
as a :class:`~repro.fastsim.workload.BatchWorkload`: sampled
(:class:`ModelBatchWorkload`) and replayed (:class:`BatchTraceWorkload`).

The stream owns the mutable part of a workload run (the generator, the
current rank -> key mapping, the next unapplied boundary) while the model
stays a frozen schedule. Both engines consume the same stream class, so
given the same generator state the realized mapping and queries are
identical on either.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError
from repro.fastsim.workload import BatchWorkload
from repro.workloads.models import TraceReplay, WorkloadModel

__all__ = ["ModelBatchWorkload", "BatchTraceWorkload"]


class _BoundaryCursor:
    """Tracks a model's next unapplied boundary for one stream."""

    def __init__(self, model: WorkloadModel) -> None:
        self.model = model
        self.next = model.next_boundary(-math.inf)

    def advance(
        self, now: float, mapping: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, bool]:
        """Apply every boundary due by ``now``; returns ``(mapping, changed)``."""
        changed = False
        while now >= self.next:
            at = self.next
            mapping = self.model.apply(at, mapping, rng)
            self.next = self.model.next_boundary(at)
            changed = True
        return mapping, changed


class ModelBatchWorkload(BatchWorkload):
    """Sampled stream: Zipf draws under the model's mapping schedule.

    Between boundaries the mapping is frozen, so ``draw_rounds`` draws
    each whole segment in one ``draw_into`` call — the stationary stream
    is the one-segment case, and never holds a mapping array.
    """

    def __init__(self, model: WorkloadModel, zipf, rng) -> None:
        super().__init__(model, zipf, rng)
        self._cursor = _BoundaryCursor(model)

    def next_boundary(self, now: float) -> float:
        return self._cursor.next

    def maybe_shift(self, now: float) -> bool:
        mapping = self.rank_to_key
        if mapping is None and now >= self._cursor.next:
            # The first boundary shifts the identity as the array it
            # stands for.
            mapping = np.arange(self.n_keys)
        self.rank_to_key, changed = self._cursor.advance(
            now, mapping, self.rng
        )
        return changed


class BatchTraceWorkload(BatchWorkload):
    """Replayed stream: a recorded trace, verbatim.

    The per-round query counts come from the trace, not a Poisson draw
    (:meth:`fixed_counts`), and the draws slice the trace's precomputed
    arrays instead of sampling — whatever count is asked for, the round
    ending at ``now`` replays the events with times in ``[now - 1, now)``
    (round ``i`` of a run starting at ``start``: ``[start + i,
    start + i + 1)``), so every strategy on either engine sees the
    identical query sequence.
    """

    def __init__(self, model: TraceReplay, zipf, rng) -> None:
        super().__init__(model, zipf, rng)
        if zipf.n_keys != model.trace.n_keys:
            raise ParameterError(
                f"trace covers {model.trace.n_keys} keys, "
                f"scenario has {zipf.n_keys}"
            )
        self.trace = model.trace
        self._times = np.array([e.time for e in model.trace], dtype=float)
        self._ranks = np.array([e.rank for e in model.trace], dtype=np.int64)
        self._keys = np.array(
            [e.key_index for e in model.trace], dtype=np.int64
        )

    def next_boundary(self, now: float) -> float:
        return math.inf

    def maybe_shift(self, now: float) -> bool:
        return False

    def fixed_counts(self, start: float, rounds: int) -> np.ndarray:
        edges = start + np.arange(rounds + 1, dtype=float)
        return np.diff(np.searchsorted(self._times, edges, side="left"))

    def draw_round(self, now: float, count: int):
        lo, hi = np.searchsorted(
            self._times, [now - 1.0, now], side="left"
        )
        return self._ranks[lo:hi].copy(), self._keys[lo:hi].copy()

    def draw_rounds(self, start: float, counts: np.ndarray, out=None):
        # ``out`` (the kernel's reusable draw buffers) is accepted for
        # signature parity and ignored: replay slices the recorded
        # stream, it never draws.
        counts = np.asarray(counts, dtype=np.int64)
        expected = self.fixed_counts(start, counts.size)
        if not np.array_equal(counts, expected):
            raise ParameterError(
                "trace replay needs the trace's own per-round counts "
                "(use fixed_counts); the passed counts disagree with the "
                "recorded stream"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        lo = int(np.searchsorted(self._times, start, side="left"))
        hi = lo + int(offsets[-1])
        return self._ranks[lo:hi].copy(), self._keys[lo:hi].copy(), offsets
