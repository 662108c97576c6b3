"""Differential tests: the one model-built stream against the six legacy
workload classes (and the event engine's ``QueryWorkload.draw``) it
replaced.

Below, verbatim from the commit before ISSUE 23: the event engine's
``QueryWorkload`` hierarchy (``repro.workload.queries``: ``QueryEvent``
objects from ``sample_ranks`` plus a per-query mapping lookup) and the
kernel's ``BatchWorkload`` hierarchy (``repro.fastsim.workload``, base
class included: ``shift_pending``, the ``next_boundary -> now`` default,
the segment loop). They are the reference; the code under test is
``model.build(zipf, rng)``:

=====================================  ================================
legacy class (event / batch)           model
=====================================  ================================
``ZipfQueryWorkload`` /                ``StationaryZipf()``
``BatchZipfWorkload``
``ShuffledZipfWorkload(t)`` /          ``RankSwap(t)``
``BatchShuffledZipfWorkload(t)``
``FlashCrowdWorkload(t, cold)`` /      ``FlashCrowd(t, hot_for=inf,
``BatchFlashCrowdWorkload(t, cold)``   cold_rank=cold)``
=====================================  ================================

``==`` on every rank and key index, on ``rank_to_key`` after every
round (the stream's ``None`` read as the identity it stands for), and on ``rng.bit_generator.state`` at the end — per round (the
event driver's ``draw``, the kernel's ``draw_round``) and batched
(``draw_rounds`` with and without ``out``) — or every seeded stream,
pinned capture and stored cell moves. Worlds start from the identity
mapping or from a permuted one (installed on both sides), so "re-draw
the mapping" and "the key *currently* at ``cold_rank``" are told apart
from their identity-mapping coincidences.

This module also holds what the event-vs-batch parity tests used to
check between two hierarchies (same ranks, keys and mapping through the
shift): both engines now run the one stream, and the legacy event
classes here are what it is compared with.

Mutations these tests were run against, and what failed:

* shift applied after the round's draw instead of before
  (``BatchWorkload.draw_round``): ``test_per_round_views_equal_legacy``
  (shuffled, flash_crowd);
* ``>`` for ``>=`` at the boundary (``_BoundaryCursor.advance``): all
  four tests — the three differential ones on shuffled and flash_crowd
  (a shift time on a round), and the late cold-rank rejection;
* ``rng.permutation(mapping)`` for ``rng.permutation(mapping.size)``
  (``RankSwap.apply``): the three differential tests, shuffled (permuted
  start only — on the identity mapping the two coincide);
* promote inserting at rank 2 (``FlashCrowd.apply``): the same three,
  flash_crowd;
* ``cold_rank`` resolved to a key at construction instead of against the
  live mapping (``FlashCrowd``): the same three, flash_crowd (permuted
  start);
* ``draw`` consuming a key-pass uniform (a second ``rng.random`` per
  round in ``BatchWorkload.draw``): ``test_per_round_views_equal_legacy``
  on ranks of the following round and on generator state.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim.precision import INDEX_DTYPE
from repro.workloads import FlashCrowd, RankSwap, StationaryZipf


# ----------------------------------------------------------------------
# The replaced code, verbatim: repro.workload.queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryEvent:
    """One query: when, and for which key rank.

    ``rank`` is the *popularity* rank at emission time; ``key_index`` is
    the stable identity of the queried key (index into the key universe),
    which differs from ``rank`` once the workload shifts.
    """

    time: float
    rank: int
    key_index: int


class QueryWorkload(abc.ABC):
    """A stream of :class:`QueryEvent` drawn at a configurable rate."""

    def __init__(self, zipf: ZipfDistribution, rng: np.random.Generator) -> None:
        self.zipf = zipf
        self.rng = rng
        #: Permutation mapping rank-1-based -> key index. Identity at start.
        self._rank_to_key = np.arange(zipf.n_keys)

    @property
    def n_keys(self) -> int:
        return self.zipf.n_keys

    def key_for_rank(self, rank: int) -> int:
        """Stable key index currently holding popularity ``rank``."""
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(f"rank must be in [1, {self.n_keys}], got {rank}")
        return int(self._rank_to_key[rank - 1])

    @abc.abstractmethod
    def maybe_shift(self, now: float) -> bool:
        """Apply any scheduled distribution change; True if one happened."""

    def draw(self, now: float, count: int) -> list[QueryEvent]:
        """Draw ``count`` queries at time ``now`` (after applying shifts)."""
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        self.maybe_shift(now)
        ranks = self.zipf.sample_ranks(self.rng, count)
        return [
            QueryEvent(
                time=now, rank=int(r), key_index=int(self._rank_to_key[int(r) - 1])
            )
            for r in ranks
        ]


class ZipfQueryWorkload(QueryWorkload):
    """The stationary Zipf stream of the paper's evaluation."""

    def maybe_shift(self, now: float) -> bool:
        return False


class ShuffledZipfWorkload(QueryWorkload):
    """Re-draws the rank->key mapping at ``shift_time``.

    After the shift the *shape* of the distribution is unchanged but the
    identity of the popular keys is new, so every previously-indexed hot
    key goes cold at once — the hardest case for the TTL selection
    algorithm.
    """

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

    def maybe_shift(self, now: float) -> bool:
        if not self.shifted and now >= self.shift_time:
            self._rank_to_key = self.rng.permutation(self.n_keys)
            self.shifted = True
            return True
        return False


class FlashCrowdWorkload(QueryWorkload):
    """Promotes one cold key to rank 1 at ``crowd_time`` (breaking news).

    The old rank-1 key and every key in between shift down one rank; the
    promoted key was previously at ``cold_rank`` (default: the very tail).
    """

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

    def maybe_shift(self, now: float) -> bool:
        if not self.crowded and now >= self.crowd_time:
            promoted = self._rank_to_key[self.cold_rank - 1]
            mapping = np.delete(self._rank_to_key, self.cold_rank - 1)
            self._rank_to_key = np.concatenate(([promoted], mapping))
            self.crowded = True
            return True
        return False


# ----------------------------------------------------------------------
# The replaced code, verbatim: repro.fastsim.workload
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
KINDS = ("stationary", "shuffled", "flash_crowd")


def _legacy(kind, cls_event, zipf, rng, shift, cold_rank):
    """The legacy event (``cls_event`` true) or batch stream of ``kind``."""
    if kind == "stationary":
        cls = ZipfQueryWorkload if cls_event else BatchZipfWorkload
        return cls(zipf, rng)
    if kind == "shuffled":
        cls = ShuffledZipfWorkload if cls_event else BatchShuffledZipfWorkload
        return cls(zipf, rng, shift_time=shift)
    cls = FlashCrowdWorkload if cls_event else BatchFlashCrowdWorkload
    return cls(zipf, rng, crowd_time=shift, cold_rank=cold_rank)


def _model(kind, shift, cold_rank):
    if kind == "stationary":
        return StationaryZipf()
    if kind == "shuffled":
        return RankSwap(shift)
    return FlashCrowd(shift, hot_for=math.inf, cold_rank=cold_rank)


@dataclass
class World:
    kind: str
    zipf: ZipfDistribution
    seed: int
    shift: float
    cold_rank: int | None
    counts: np.ndarray
    start: float
    premapped: bool

    def _install(self, stream, attribute):
        if self.premapped:
            setattr(
                stream,
                attribute,
                np.random.default_rng(self.seed ^ 0x5EED).permutation(
                    self.zipf.n_keys
                ),
            )
        return stream

    def legacy_event(self):
        return self._install(
            _legacy(
                self.kind, True, self.zipf, np.random.default_rng(self.seed),
                self.shift, self.cold_rank,
            ),
            "_rank_to_key",
        )

    def legacy_batch(self):
        return self._install(
            _legacy(
                self.kind, False, self.zipf, np.random.default_rng(self.seed),
                self.shift, self.cold_rank,
            ),
            "rank_to_key",
        )

    def stream(self):
        return self._install(
            _model(self.kind, self.shift, self.cold_rank).build(
                self.zipf, np.random.default_rng(self.seed)
            ),
            "rank_to_key",
        )

    def times(self):
        return [self.start + i + 1.0 for i in range(self.counts.size)]


@st.composite
def worlds(draw):
    n_keys = draw(st.one_of(st.sampled_from([1, 2, 3, 300]), st.integers(1, 300)))
    counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    start = draw(st.sampled_from([0.0, 3.0]))
    rounds = len(counts)
    # At 0, on a round, between rounds, past the end.
    shift = draw(
        st.one_of(
            st.sampled_from([0.0, start + 1.0, start + rounds, start + rounds + 5.0]),
            st.integers(0, rounds + 1).map(lambda i: start + i),
            st.integers(0, rounds).map(lambda i: start + i + 0.5),
        )
    )
    cold_rank = draw(
        st.one_of(
            st.none(),
            st.sampled_from([1, n_keys]),
            st.integers(1, n_keys),
        )
    )
    return World(
        kind=draw(st.sampled_from(KINDS)),
        zipf=ZipfDistribution(
            n_keys,
            draw(st.one_of(st.sampled_from([0.0, 1.2]), st.floats(0.0, 3.0))),
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
        shift=shift,
        cold_rank=cold_rank,
        counts=np.asarray(counts),
        start=start,
        premapped=draw(st.booleans()),
    )


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def _mapping(stream) -> np.ndarray:
    """The mapping ``stream`` applies: its ``rank_to_key``, where
    ``None`` is the identity."""
    if stream.rank_to_key is None:
        return np.arange(stream.n_keys)
    return stream.rank_to_key


# One explicit world per kind with the shift on a round and a permuted
# start, so the table in the docstring holds without hypothesis's luck.
_EXPLICIT = [
    World(kind, ZipfDistribution(50, 1.2), 7, 2.0, cold, np.array([5, 0, 9, 4]),
          0.0, True)
    for kind, cold in (("stationary", None), ("shuffled", None),
                       ("flash_crowd", 17))
]


def _examples(*rest):
    def decorate(test):
        for world in _EXPLICIT:
            test = example(world, *rest)(test)
        return test

    return decorate


# ----------------------------------------------------------------------
# Per round: the event driver's view and the kernel's
# ----------------------------------------------------------------------
@_examples()
@given(worlds())
@settings(max_examples=150, deadline=None)
def test_per_round_views_equal_legacy(world):
    event, batch = world.legacy_event(), world.legacy_batch()
    drawn, rounded = world.stream(), world.stream()
    for now, count in zip(world.times(), world.counts.tolist()):
        events = event.draw(now, count)
        assert all(e.time == now for e in events)
        want = [(e.rank, e.key_index) for e in events]
        ranks, keys = batch.draw_round(now, count)
        assert want == list(zip(ranks.tolist(), keys.tolist()))

        pairs = drawn.draw(now, count)
        assert pairs == want
        assert all(type(v) is int for pair in pairs for v in pair)
        got_ranks, got_keys = rounded.draw_round(now, count)
        assert np.array_equal(got_ranks, ranks)
        assert np.array_equal(got_keys, keys)
        assert got_ranks.dtype == ranks.dtype and got_keys.dtype == keys.dtype
        for stream in (drawn, rounded):
            assert np.array_equal(_mapping(stream), event._rank_to_key)
            assert np.array_equal(_mapping(stream), batch.rank_to_key)
    for stream in (drawn, rounded):
        assert _same_state(stream.rng, event.rng)
        assert _same_state(stream.rng, batch.rng)


# ----------------------------------------------------------------------
# Batched: draw_rounds, with and without the kernel's buffers
# ----------------------------------------------------------------------
@_examples(True)
@given(worlds(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_draw_rounds_equals_legacy(world, supply_out):
    total = int(world.counts.sum())

    def out():
        if not supply_out:
            return None
        return (np.full(total + 3, -1), np.full(total + 3, -1))

    legacy, stream = world.legacy_batch(), world.stream()
    want_out, got_out = out(), out()
    want = legacy.draw_rounds(world.start, world.counts, out=want_out)
    got = stream.draw_rounds(world.start, world.counts, out=got_out)
    for want_part, got_part in zip(want, got):
        assert np.array_equal(got_part, want_part)
        assert got_part.dtype == want_part.dtype
    assert np.array_equal(_mapping(stream), legacy.rank_to_key)
    assert _same_state(stream.rng, legacy.rng)
    if supply_out:
        assert got[0].base is got_out[0] and got[1].base is got_out[1]
        assert (got_out[0][total:] == -1).all()
        assert (got_out[1][total:] == -1).all()
    # ... and the batch is the event engine's per-round stream.
    event = world.legacy_event()
    events = [
        (e.rank, e.key_index)
        for now, count in zip(world.times(), world.counts.tolist())
        for e in event.draw(now, count)
    ]
    assert events == list(zip(got[0].tolist(), got[1].tolist()))
    assert np.array_equal(_mapping(stream), event._rank_to_key)
    assert _same_state(stream.rng, event.rng)


@_examples(2)
@given(worlds(), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_split_draw_rounds_equals_legacy(world, cut):
    """Two consecutive blocks (the kernel splits at ``DRAW_BLOCK``) are
    the legacy stream's one block, wherever the shift falls."""
    cut = min(cut, world.counts.size)
    legacy, stream = world.legacy_batch(), world.stream()
    want_ranks, want_keys, _ = legacy.draw_rounds(world.start, world.counts)
    first = stream.draw_rounds(world.start, world.counts[:cut])
    second = stream.draw_rounds(world.start + cut, world.counts[cut:])
    assert np.array_equal(np.concatenate([first[0], second[0]]), want_ranks)
    assert np.array_equal(np.concatenate([first[1], second[1]]), want_keys)
    assert np.array_equal(_mapping(stream), legacy.rank_to_key)
    assert _same_state(stream.rng, legacy.rng)


# ----------------------------------------------------------------------
# What the legacy constructors rejected is still rejected
# ----------------------------------------------------------------------
def test_rejections_match_legacy():
    zipf = ZipfDistribution(10, 1.2)
    rng = np.random.default_rng(0)
    for build in (
        lambda: ShuffledZipfWorkload(zipf, rng, shift_time=-1.0),
        lambda: BatchShuffledZipfWorkload(zipf, rng, shift_time=-1.0),
        lambda: RankSwap(-1.0),
        lambda: FlashCrowdWorkload(zipf, rng, crowd_time=-1.0),
        lambda: BatchFlashCrowdWorkload(zipf, rng, crowd_time=-1.0),
        lambda: FlashCrowd(-1.0),
        lambda: FlashCrowdWorkload(zipf, rng, crowd_time=1.0, cold_rank=0),
        lambda: BatchFlashCrowdWorkload(zipf, rng, crowd_time=1.0, cold_rank=0),
        lambda: FlashCrowd(1.0, cold_rank=0),
        lambda: ZipfQueryWorkload(zipf, rng).draw(0.0, -1),
        lambda: BatchZipfWorkload(zipf, rng).draw_round(0.0, -1),
        lambda: StationaryZipf().build(zipf, rng).draw(0.0, -1),
        lambda: StationaryZipf().build(zipf, rng).draw_round(0.0, -1),
    ):
        with pytest.raises(ParameterError):
            build()
    # A cold rank beyond the universe: the legacy classes refused to be
    # built, the model refuses when the crowd arrives (it only then
    # meets a mapping).
    with pytest.raises(ParameterError):
        FlashCrowdWorkload(zipf, rng, crowd_time=1.0, cold_rank=11)
    late = FlashCrowd(1.0, cold_rank=11).build(zipf, rng)
    with pytest.raises(ParameterError):
        late.draw_round(1.0, 1)
