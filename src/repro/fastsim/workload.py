"""Batched query-stream sampling for the vectorized kernel.

Mirror of :mod:`repro.workload.queries` at batch granularity: instead of
yielding one :class:`~repro.workload.queries.QueryEvent` per query, a batch
workload returns whole numpy arrays of (rank, key index) pairs per round.
The non-stationary variants reproduce the same shift semantics so the
adaptivity experiments run unchanged on either engine.

The general non-stationary case lives in :mod:`repro.workloads`: a
:class:`~repro.workloads.models.WorkloadModel` builds a batch stream via
``model.build_batch(zipf, rng)``, whose ``next_boundary`` schedule keeps
whole shift-free segments on the one-``draw_into`` fast path, plus
optional per-round rate modulation (:meth:`BatchWorkload.rate_multipliers`)
and exact trace-replay counts (:meth:`BatchWorkload.fixed_counts`).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim.precision import INDEX_DTYPE

__all__ = [
    "BatchWorkload",
    "BatchZipfWorkload",
    "BatchShuffledZipfWorkload",
    "BatchFlashCrowdWorkload",
]


class BatchWorkload(abc.ABC):
    """A vectorized stream of query batches over a Zipf key universe."""

    def __init__(self, zipf: ZipfDistribution, rng: np.random.Generator) -> None:
        self.zipf = zipf
        self.rng = rng
        #: Permutation mapping (rank - 1) -> key index. Identity at start.
        self.rank_to_key = np.arange(zipf.n_keys)

    @property
    def n_keys(self) -> int:
        return self.zipf.n_keys

    def key_for_rank(self, rank: int) -> int:
        """Stable key index currently holding popularity ``rank``."""
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(f"rank must be in [1, {self.n_keys}], got {rank}")
        return int(self.rank_to_key[rank - 1])

    @abc.abstractmethod
    def maybe_shift(self, now: float) -> bool:
        """Apply any scheduled distribution change; True if one happened."""

    def next_boundary(self, now: float) -> float:
        """Earliest round time at which :meth:`maybe_shift` could change
        anything; ``math.inf`` if it never will again.

        A pure peek — consumes no randomness — so :meth:`draw_rounds` can
        batch whole shift-free segments in one ``draw_into`` call and
        *jump* directly to the next boundary instead of testing every
        round. A returned time at or before ``now`` means a shift is due
        now. The base default is conservatively ``now``: a subclass that
        only overrides :meth:`maybe_shift` still has it invoked every
        round (one-round segments, identical semantics to the per-round
        path); overriding this with an exact schedule is the batching
        opt-in.
        """
        return now

    def shift_pending(self, now: float) -> bool:
        """Whether :meth:`maybe_shift` *could* change anything at ``now``
        (the boolean view of :meth:`next_boundary`; also a pure peek)."""
        return self.next_boundary(now) <= now

    def rate_multipliers(self, start: float, rounds: int) -> np.ndarray | None:
        """Per-round query-rate factors for rounds ``start+1 .. start+rounds``.

        ``None`` (the default) marks the stationary-rate case, letting
        the kernel keep its exact historical ``poisson(rate, size=n)``
        draw; a time-varying workload (e.g. a diurnal cycle) returns an
        array of factors applied to the scenario rate per round.
        """
        return None

    def fixed_counts(self, start: float, rounds: int) -> np.ndarray | None:
        """Exact per-round query counts, overriding the Poisson draw.

        ``None`` (the default) keeps the sampled counts; a trace-replay
        workload returns the recorded stream's own counts so the kernel
        replays it verbatim.
        """
        return None

    def draw_round(
        self, now: float, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one round's query batch; returns ``(ranks, key_indices)``."""
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        self.maybe_shift(now)
        ranks = np.empty(count, dtype=INDEX_DTYPE)
        keys = np.empty_like(ranks)
        self.zipf.draw_into(self.rng, ranks, keys, self.rank_to_key)
        return ranks, keys

    def draw_rounds(
        self,
        start: float,
        counts: np.ndarray,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw many consecutive rounds' batches in one or few RNG calls.

        Round ``i`` (0-based) happens at ``start + i + 1`` with
        ``counts[i]`` queries, exactly like ``len(counts)`` successive
        :meth:`draw_round` calls. Stationary workloads draw everything in
        a single ``draw_into`` call; non-stationary workloads split at
        shift boundaries and draw per segment, so the rank->key mapping
        applied to each round and the RNG stream order are identical to
        the per-round path — seeded results stay bit-identical.

        ``out``, when given, is an optional ``(ranks, keys)`` pair of
        preallocated int64 buffers; if large enough, the batch is written
        into (views of) them instead of fresh arrays, which lets the
        kernel's streamed loop reuse one draw block for the whole run.
        Buffers that are too small or mistyped are ignored — the call
        then allocates exactly as before.

        Returns ``(ranks, keys, offsets)`` where
        ``ranks[offsets[i]:offsets[i + 1]]`` is round ``i``'s batch.
        """
        counts = np.asarray(counts, dtype=INDEX_DTYPE)
        if counts.size and counts.min() < 0:
            raise ParameterError(
                f"counts must be >= 0, got min {counts.min()}"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        if (
            out is not None
            and out[0].size >= total
            and out[1].size >= total
            and out[0].dtype == INDEX_DTYPE
            and out[1].dtype == INDEX_DTYPE
        ):
            ranks = out[0][:total]
            keys = out[1][:total]
        else:
            ranks = np.empty(total, dtype=INDEX_DTYPE)
            keys = np.empty_like(ranks)

        def flush(lo_round: int, hi_round: int) -> None:
            # Draw the segment [lo_round, hi_round) under the current
            # mapping, straight into the output buffers.
            lo, hi = int(offsets[lo_round]), int(offsets[hi_round])
            if hi > lo:
                self.zipf.draw_into(
                    self.rng, ranks[lo:hi], keys[lo:hi], self.rank_to_key
                )

        n = counts.size
        segment_start = 0
        i = 0
        while i < n:
            now = start + i + 1.0
            boundary = self.next_boundary(now)
            if boundary <= now:
                # Round i sits on a boundary: flush the pending segment
                # under the old mapping, then apply the shift (which may
                # consume RNG) before round i draws.
                flush(segment_start, i)
                self.maybe_shift(now)
                segment_start = i
                i += 1
            elif boundary == math.inf:
                i = n
            else:
                # Jump to the first round whose time reaches the
                # boundary. The loop re-checks the peek there, so a
                # conservative (early) landing only costs one more
                # iteration — never a missed shift.
                i = max(i + 1, int(math.ceil(boundary - start - 1.0)))
        flush(segment_start, n)
        return ranks, keys, offsets


class BatchZipfWorkload(BatchWorkload):
    """The stationary Zipf stream of the paper's evaluation."""

    def next_boundary(self, now: float) -> float:
        return math.inf

    def maybe_shift(self, now: float) -> bool:
        return False


class BatchShuffledZipfWorkload(BatchWorkload):
    """Re-draws the rank->key mapping at ``shift_time`` (wholesale change)."""

    def __init__(
        self,
        zipf: ZipfDistribution,
        rng: np.random.Generator,
        shift_time: float,
    ) -> None:
        super().__init__(zipf, rng)
        if shift_time < 0:
            raise ParameterError(f"shift_time must be >= 0, got {shift_time}")
        self.shift_time = shift_time
        self.shifted = False

    def next_boundary(self, now: float) -> float:
        return self.shift_time if not self.shifted else math.inf

    def maybe_shift(self, now: float) -> bool:
        if self.shift_pending(now):
            self.rank_to_key = self.rng.permutation(self.n_keys)
            self.shifted = True
            return True
        return False


class BatchFlashCrowdWorkload(BatchWorkload):
    """Promotes one cold key to rank 1 at ``crowd_time`` (breaking news)."""

    def __init__(
        self,
        zipf: ZipfDistribution,
        rng: np.random.Generator,
        crowd_time: float,
        cold_rank: int | None = None,
    ) -> None:
        super().__init__(zipf, rng)
        if crowd_time < 0:
            raise ParameterError(f"crowd_time must be >= 0, got {crowd_time}")
        cold_rank = zipf.n_keys if cold_rank is None else cold_rank
        if not 1 <= cold_rank <= zipf.n_keys:
            raise ParameterError(
                f"cold_rank must be in [1, {zipf.n_keys}], got {cold_rank}"
            )
        self.crowd_time = crowd_time
        self.cold_rank = cold_rank
        self.crowded = False

    def next_boundary(self, now: float) -> float:
        return self.crowd_time if not self.crowded else math.inf

    def maybe_shift(self, now: float) -> bool:
        if self.shift_pending(now):
            promoted = self.rank_to_key[self.cold_rank - 1]
            mapping = np.delete(self.rank_to_key, self.cold_rank - 1)
            self.rank_to_key = np.concatenate(([promoted], mapping))
            self.crowded = True
            return True
        return False
