"""The query stream both engines draw from.

A :class:`BatchWorkload` is the one mutable realisation of a frozen
:class:`~repro.workloads.models.WorkloadModel` (``model.build(zipf,
rng)``): it owns the generator and the current rank -> key mapping and
hands out (rank, key index) pairs. The vectorized kernel takes whole
blocks of rounds as arrays (:meth:`BatchWorkload.draw_rounds`, one
``draw_into`` call per shift-free segment, jumping between the stream's
``next_boundary`` times); the event driver takes one round at a time
(:meth:`BatchWorkload.draw`). Both are views of
:meth:`BatchWorkload.draw_round`, so the same generator state yields the
same queries on either engine. A stream may also modulate the query rate
(:meth:`BatchWorkload.rate_multiplier` / ``rate_multipliers``) or pin the
per-round counts (:meth:`BatchWorkload.fixed_counts`, trace replay).

A stream starts on the identity rank -> key mapping, which it holds as
``rank_to_key = None``: its draws copy each query's rank index as its
key index instead of gathering it from a mapping, and no O(n_keys)
array exists until a shift makes a real one (a shifting model builds
the ``arange`` at its first boundary; ``WorkloadModel.apply`` returns
a new mapping). A stream that comes through pickle or shared memory
keeps ``None``, and so the copy. A store key spells ``None`` as the
identity list (:meth:`BatchWorkload.__store_key__`), so a stream keys
as it did when it held the array.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim.precision import INDEX_DTYPE

if TYPE_CHECKING:
    from repro.workloads.models import WorkloadModel

__all__ = ["BatchWorkload"]

#: An ``out`` buffer no batch fits: :meth:`BatchWorkload.draw_rounds`
#: allocates in its place.
_FRESH = np.empty(0, dtype=INDEX_DTYPE)


def _buffer(buffer: np.ndarray, total: int) -> np.ndarray:
    """A view of ``buffer`` holding ``total`` queries, or a fresh array
    where it is too small or not :data:`INDEX_DTYPE`."""
    if buffer.size >= total and buffer.dtype == INDEX_DTYPE:
        return buffer[:total]
    return np.empty(total, dtype=INDEX_DTYPE)


class BatchWorkload(abc.ABC):
    """A stream of query batches over a Zipf key universe, realising
    ``model`` from ``rng``."""

    def __init__(
        self,
        model: WorkloadModel,
        zipf: ZipfDistribution,
        rng: np.random.Generator,
    ) -> None:
        self.model = model
        self.zipf = zipf
        self.rng = rng
        #: Permutation mapping (rank - 1) -> key index; ``None`` is the
        #: identity, which every stream starts on.
        self.rank_to_key: np.ndarray | None = None

    @property
    def n_keys(self) -> int:
        return self.zipf.n_keys

    def key_for_rank(self, rank: int) -> int:
        """Stable key index currently holding popularity ``rank``."""
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(f"rank must be in [1, {self.n_keys}], got {rank}")
        if self.rank_to_key is None:
            return int(rank) - 1
        return int(self.rank_to_key[rank - 1])

    def __store_key__(self) -> dict[str, object]:
        """The stream's instance state for a store key, the identity
        mapping spelled as the list it stands for: a stream keys as it
        did when it held that array."""
        state = dict(vars(self))
        if self.rank_to_key is None:
            state["rank_to_key"] = np.arange(self.n_keys)
        return state

    @abc.abstractmethod
    def maybe_shift(self, now: float) -> bool:
        """Apply any scheduled distribution change; True if one happened."""

    @abc.abstractmethod
    def next_boundary(self, now: float) -> float:
        """Earliest round time at which :meth:`maybe_shift` could change
        anything; ``math.inf`` if it never will again.

        A pure peek — consumes no randomness — so :meth:`draw_rounds` can
        batch whole shift-free segments in one ``draw_into`` call and
        *jump* directly to the next boundary instead of testing every
        round. A returned time at or before ``now`` means a shift is due
        now.
        """

    def rate_multiplier(self, now: float) -> float:
        """Query-rate factor of the round at ``now`` (1.0 = the scenario
        rate): what the event driver scales its Poisson mean by."""
        return self.model.rate_multiplier(now)

    def rate_multipliers(self, start: float, rounds: int) -> np.ndarray | None:
        """Per-round query-rate factors for rounds ``start+1 .. start+rounds``.

        ``None`` marks the stationary-rate case, letting the kernel keep
        its exact historical ``poisson(rate, size=n)`` draw; a
        time-varying model (e.g. a diurnal cycle) gives an array of
        factors applied to the scenario rate per round. The kernel's
        vectorised counterpart of :meth:`rate_multiplier`, kept apart
        from it: ``np.sin`` and ``math.sin`` differ in the last ulp, and
        a pinned Poisson mean must not.
        """
        times = start + 1.0 + np.arange(rounds, dtype=float)
        return self.model.rate_multipliers(times)

    def fixed_counts(self, start: float, rounds: int) -> np.ndarray | None:
        """Exact per-round query counts, overriding the Poisson draw.

        ``None`` (the default) keeps the sampled counts; a trace-replay
        workload returns the recorded stream's own counts so the kernel
        replays it verbatim.
        """
        return None

    def draw(self, now: float, count: int) -> list[tuple[int, int]]:
        """One round's queries as ``(rank, key_index)`` pairs — the
        per-query view of :meth:`draw_round` the event driver loops over."""
        ranks, keys = self.draw_round(now, count)
        return list(zip(ranks.tolist(), keys.tolist()))

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
        out: tuple[np.ndarray | None, np.ndarray] | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Draw many consecutive rounds' batches in one or few RNG calls.

        Round ``i`` (0-based) happens at ``start + i + 1`` with
        ``counts[i]`` queries, exactly like ``len(counts)`` successive
        :meth:`draw_round` calls. Stationary workloads draw everything in
        a single ``draw_into`` call; non-stationary workloads split at
        shift boundaries and draw per segment, so the rank->key mapping
        applied to each round and the RNG stream order are identical to
        the per-round path — seeded results stay bit-identical.

        ``out``, when given, is a ``(ranks, keys)`` pair of preallocated
        int64 buffers; the batch is written into (views of) each one
        large enough, which lets the kernel's streamed loop reuse one
        draw block for the whole run. A buffer that is too small or
        mistyped is ignored, and the call allocates in its place. A
        ``None`` ranks buffer draws the keys only: the same keys and
        generator state, with no ranks written, and ``None`` returned
        for them.

        Returns ``(ranks, keys, offsets)`` where
        ``keys[offsets[i]:offsets[i + 1]]`` is round ``i``'s batch.
        """
        counts = np.asarray(counts, dtype=INDEX_DTYPE)
        if counts.size and counts.min() < 0:
            raise ParameterError(
                f"counts must be >= 0, got min {counts.min()}"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        ranks_out, keys_out = out if out is not None else (_FRESH, _FRESH)
        ranks = None if ranks_out is None else _buffer(ranks_out, total)
        keys = _buffer(keys_out, total)

        def flush(lo_round: int, hi_round: int) -> None:
            # Draw the segment [lo_round, hi_round) under the current
            # mapping, straight into the output buffers.
            lo, hi = int(offsets[lo_round]), int(offsets[hi_round])
            if hi > lo:
                self.zipf.draw_into(
                    self.rng,
                    None if ranks is None else ranks[lo:hi],
                    keys[lo:hi],
                    self.rank_to_key,
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
