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

A stream starts on the identity rank -> key mapping, and draws under it
copy each query's rank index as its key index instead of gathering it
from the mapping: :func:`_identity` registers the read-only arange it
hands a new stream, and :meth:`BatchWorkload._mapping` recognises it by
object, in O(1). A shift replaces the array (``WorkloadModel.apply``
returns a new mapping), so a shifted stream gathers again; so does a
copy that came through pickle or shared memory, with the same result.
"""

from __future__ import annotations

import abc
import math
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim.precision import INDEX_DTYPE

if TYPE_CHECKING:
    from repro.workloads.models import WorkloadModel

__all__ = ["BatchWorkload"]

#: The identity mappings :func:`_identity` made and that are still
#: alive, by ``id``: held weakly, so a mapping dies with its streams.
_IDENTITIES: weakref.WeakValueDictionary[int, np.ndarray] = (
    weakref.WeakValueDictionary()
)


def _identity(n_keys: int) -> np.ndarray:
    """A read-only identity rank -> key mapping over ``n_keys`` keys,
    registered so :meth:`BatchWorkload._mapping` knows it as one."""
    mapping = np.arange(n_keys)
    mapping.flags.writeable = False
    _IDENTITIES[id(mapping)] = mapping
    return mapping


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
        #: Permutation mapping (rank - 1) -> key index. Identity at start.
        self.rank_to_key = _identity(zipf.n_keys)

    @property
    def n_keys(self) -> int:
        return self.zipf.n_keys

    def _mapping(self) -> np.ndarray | None:
        """The mapping a draw applies: ``None`` while it is the identity
        this process made for a stream (the draw then copies)."""
        mapping = self.rank_to_key
        return None if _IDENTITIES.get(id(mapping)) is mapping else mapping

    def key_for_rank(self, rank: int) -> int:
        """Stable key index currently holding popularity ``rank``."""
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(f"rank must be in [1, {self.n_keys}], got {rank}")
        return int(self.rank_to_key[rank - 1])

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
        self.zipf.draw_into(self.rng, ranks, keys, self._mapping())
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
                    self.rng, ranks[lo:hi], keys[lo:hi], self._mapping()
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
