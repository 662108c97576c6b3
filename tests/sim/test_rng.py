"""Tests for named random streams and the block-served bounded draw.

``BoundedStream`` is held to two references: ``Generator.integers``
itself, and ``bounded_draws`` — the per-search coroutine it replaced
(ISSUE 22), kept here verbatim. Values drawn, and the generator state
after ``settle()`` (or the coroutine's ``close()``), must be ``==``.

Mutations run against ``BoundedStream``, each caught by the test named:

* the threshold test written ``leftover > threshold`` for ``>=`` (numpy's
  ``<`` as ``<=``) — ``TestLemireRejection``
  (``test_low_half_below_bound_but_not_below_threshold_is_kept``); on a
  power-of-two bound it never accepts, so the ``2**32`` draw of
  ``test_every_numpy_bit_generator`` hangs instead of failing. The first
  comparison (``leftover >= n``) is only a shortcut past the modulo:
  ``>`` there is not a fault;
* ``settle()`` re-drawing ``used - 1`` words, not rewinding at all, or
  keeping the saved state or the block it has just given back —
  ``test_sequence_and_final_state_match_scalar_draws``,
  ``test_interleaved_bounds_across_refills_and_settles``;
* ``rng`` handed out without settling (by the stream, or by
  ``RandomWalkSearch.rng``) —
  ``test_interleaved_bounds_across_refills_and_settles``,
  ``test_rng_property_settles_first``,
  ``tests/unstructured/test_walk_equivalence.py``;
* the state saved after the refill instead of before it, or ``draw`` not
  recording the words it used —
  ``test_sequence_and_final_state_match_scalar_draws``;
* ``n == 1`` consuming a word — ``test_single_choice_consumes_nothing``,
  ``test_sequence_and_final_state_match_scalar_draws``;
* ``RandomStreams.get`` handing out an owned generator without settling
  its ``bounded`` owner — ``test_get_settles_the_owner``.

``choice_rows(rng, pop, size, count)`` must return what ``count`` calls
of ``rng.choice(pop, size, replace=False)`` would, row by row, and leave
the generator where they would (``TestChoiceRows``, at every count, 0
and 1 included). Mutations of its replay of numpy's Floyd branch, each
caught by the test named:

* the Fisher-Yates draws over ``[0, i)`` instead of ``[0, i]``, or its
  loop one step short (``range(size - 2, 0, -1)``) —
  ``test_matches_numpy_calls``;
* a rejected word not skipped (the rejection test ignored) —
  ``test_rejection_heavy_populations_near_2_32``;
* a draw over ``[0, 0]`` (Floyd's first when ``pop == size``) taking a
  word — ``test_matches_numpy_calls``;
* Floyd's repeat inserting ``j`` without marking it taken, or a row's
  repeats found without the column digits (sorted out of draw order) or
  flagged at their first draw instead of the later one —
  ``test_matches_numpy_calls``;
* one sort over every row of a pass instead of one per row —
  ``test_passes_of_any_size``.

``reduce_words(words, n)`` is ``draw(n)``'s reduction applied to a whole
array, -1 marking a rejected word. Mutations of it, each caught by
``TestReduceWords.test_matches_draw_word_by_word``: the rejection test
written ``<=`` (0xAAAAAAAB rejected for n = 3), or dropped.

``BoundedStream.skip(n, count)`` must leave the stream where ``count``
calls of ``draw(n)`` would; it settles, then fetches the words owed a
chunk at a time and counts their rejections with numpy. Mutations of it,
each caught by the test named:

* rejections ignored (every word fetched counted as a draw) —
  ``TestSkip.test_rejected_words_mid_block_and_at_a_refill``, and
  ``test_matches_scalar_draws`` at ``n = 2**31 + 1``, which rejects
  almost half the words;
* no settle first (the fetch starts past the current block, not at its
  first unused word) — ``test_matches_scalar_draws`` with ``drawn = 5``,
  ``test_rejected_words_in_a_top_up_and_after_a_partly_used_block``;
* a fetch of a whole chunk instead of at most the words owed —
  ``test_matches_scalar_draws`` (every ``count`` below a chunk);
* ``n == 1`` consuming a word — ``test_matches_scalar_draws``
  (``n = 1``);
* a negative count taken as zero (no check) —
  ``test_bad_count_rejected``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
import repro.sim.rng as rng_module
from repro.sim.rng import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    CHUNK_WORDS,
    BoundedStream,
    RandomStreams,
    choice_rows,
    reduce_words,
)


# ----------------------------------------------------------------------
# The replaced coroutine, verbatim
# ----------------------------------------------------------------------
def bounded_draws(rng):
    """A coroutine whose ``send(n)`` is ``int(rng.integers(0, n))``."""
    bit_generator = rng.bit_generator
    saved = None  # bit-generator state before the current block
    words: list[int] = []
    used = 0  # words consumed from the current block
    value = 0
    try:
        while True:
            n = yield value
            if n < 2:
                if n != 1:
                    raise ParameterError(f"n must be >= 1, got {n}")
                value = 0
                continue
            while True:
                if used == len(words):
                    saved = bit_generator.state
                    block = min(max(2 * len(words), _FIRST_BLOCK), _MAX_BLOCK)
                    words = rng.integers(
                        0, 1 << 32, size=block, dtype=np.uint32
                    ).tolist()
                    used = 0
                product = words[used] * n
                used += 1
                leftover = product & 0xFFFFFFFF
                if leftover >= n or leftover >= (0x100000000 - n) % n:
                    break
            value = product >> 32
    finally:
        if saved is not None:
            bit_generator.state = saved
            rng.integers(0, 1 << 32, size=used, dtype=np.uint32)


def _coroutine_served(rng, bounds):
    draws = bounded_draws(rng)
    next(draws)
    try:
        return [draws.send(n) for n in bounds]
    finally:
        draws.close()


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.get("churn") is streams.get("churn")

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a").random(16)
        b = streams.get("b").random(16)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        first = RandomStreams(seed=9).get("queries").random(8)
        second = RandomStreams(seed=9).get("queries").random(8)
        assert np.allclose(first, second)

    def test_stream_independent_of_creation_order(self):
        forward = RandomStreams(seed=3)
        forward.get("a")
        x = forward.get("b").random(4)
        backward = RandomStreams(seed=3)
        y = backward.get("b").random(4)  # "b" created first here
        assert np.allclose(x, y)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("s").random(8)
        b = RandomStreams(seed=2).get("s").random(8)
        assert not np.allclose(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RandomStreams(seed=-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            RandomStreams(seed=0).get("")

    def test_bounded_is_one_owner_per_name(self):
        streams = RandomStreams(seed=3)
        owner = streams.bounded("origins")
        assert streams.bounded("origins") is owner
        assert streams.bounded("walks") is not owner
        assert owner.rng is streams.get("origins")

    def test_get_settles_the_owner(self):
        """Read by name, an owned stream is where scalar draws would have
        left it — before, between and after the owner's draws."""
        streams, scalar = RandomStreams(seed=3), RandomStreams(seed=3).get("origins")
        owner = streams.bounded("origins")
        for burst in (3, 0, 70, 2):
            expected = [int(scalar.integers(0, 9)) for _ in range(burst)]
            assert [owner.draw(9) for _ in range(burst)] == expected
            state = streams.get("origins").bit_generator.state
            assert state == scalar.bit_generator.state
            # a draw taken by name is a draw the owner's next block follows
            assert streams.get("origins").integers(0, 5) == scalar.integers(0, 5)
        # an unowned name is untouched by all of this
        assert (
            streams.get("churn").bit_generator.state
            == RandomStreams(seed=3).get("churn").bit_generator.state
        )


def _pair(bit_generator=np.random.PCG64, seed=0, predraws=0, count=2):
    """Generators in the same state, ``predraws`` scalar draws in (an odd
    count leaves PCG64 holding a buffered half-word)."""
    pair = []
    for _ in range(count):
        rng = np.random.Generator(bit_generator(seed))
        for _ in range(predraws):
            rng.integers(0, 3)
        pair.append(rng)
    return pair


def _served(rng, bounds):
    """The draws of a fresh stream over ``rng``, settled afterwards."""
    stream = BoundedStream(rng)
    try:
        return [stream.draw(n) for n in bounds]
    finally:
        stream.settle()


#: Bounds that take every branch: no word, the rejection-free powers of
#: two, the smallest rejecting bounds, and the two ends of the 32-bit range.
EDGE_BOUNDS = (1, 2, 3, 6, 2**31, 2**32 - 1, 2**32)


class TestBoundedDraws:
    """``BoundedStream`` re-implements numpy's bounded-integer reduction;
    these tests hold it to ``Generator.integers`` itself and to the
    coroutine it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        predraws=st.integers(0, 3),
        bounds=st.lists(st.integers(1, 64), max_size=3 * _FIRST_BLOCK),
    )
    def test_sequence_and_final_state_match_scalar_draws(
        self, seed, predraws, bounds
    ):
        scalar, served, old = _pair(seed=seed, predraws=predraws, count=3)
        expected = [int(scalar.integers(0, n)) for n in bounds]
        assert _served(served, bounds) == expected
        assert _coroutine_served(old, bounds) == expected
        assert served.bit_generator.state == scalar.bit_generator.state
        assert old.bit_generator.state == scalar.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        predraws=st.integers(0, 3),
        runs=st.lists(
            st.tuples(
                st.lists(st.sampled_from(EDGE_BOUNDS), max_size=12),
                # how often the run repeats: long ones cross several refills
                st.sampled_from([1, 1, 1, 30, 200]),
            ),
            min_size=1, max_size=5,
        ),
    )
    def test_interleaved_bounds_across_refills_and_settles(
        self, seed, predraws, runs
    ):
        """One stream across several settles — what the walker does over
        a sequence of searches — against scalar draws, and against one
        coroutine per run, which is what each search used to create."""
        scalar, served, old = _pair(seed=seed, predraws=predraws, count=3)
        stream = BoundedStream(served)
        for bounds, repeat in runs:
            bounds = bounds * repeat
            expected = [int(scalar.integers(0, n)) for n in bounds]
            assert [stream.draw(n) for n in bounds] == expected
            assert _coroutine_served(old, bounds) == expected
            assert stream.rng is served  # settles
            assert served.bit_generator.state == scalar.bit_generator.state
            assert old.bit_generator.state == scalar.bit_generator.state
            # ... and anyone may draw from the settled generator in between
            assert served.random() == scalar.random() == old.random()

    @pytest.mark.parametrize("words", [
        0, 1, 2, _FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1,
        3 * _FIRST_BLOCK, 3 * _FIRST_BLOCK + 1,  # into the third block
        4 * _MAX_BLOCK + 7,  # past the growth cap
    ])
    @pytest.mark.parametrize("predraws", [0, 1])
    def test_word_counts_around_block_refills(self, words, predraws):
        scalar, served = _pair(seed=words, predraws=predraws)
        bounds = [2 + (i % 5) for i in range(words)]
        expected = [int(scalar.integers(0, n)) for n in bounds]
        assert _served(served, bounds) == expected
        assert served.bit_generator.state == scalar.bit_generator.state
        assert served.random() == scalar.random()

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
    ])
    def test_every_numpy_bit_generator(self, bit_generator):
        scalar, served = _pair(bit_generator, seed=11, predraws=1)
        bounds = [1 + (i * 7) % 64 for i in range(200)] + [2**32 - 1, 2**32]
        expected = [int(scalar.integers(0, n)) for n in bounds]
        assert _served(served, bounds) == expected
        # MT19937's state holds an array, which dict == cannot compare
        np.testing.assert_equal(
            served.bit_generator.state, scalar.bit_generator.state
        )

    def test_single_choice_consumes_nothing(self):
        rng = np.random.Generator(np.random.PCG64(4))
        before = rng.bit_generator.state
        assert _served(rng, [1] * 10) == [0] * 10
        assert rng.bit_generator.state == before
        # ... nor in the middle of a block
        scalar, served = _pair(seed=4)
        stream = BoundedStream(served)
        expected = [int(scalar.integers(0, n)) for n in (5, 1, 1, 5)]
        assert [stream.draw(n) for n in (5, 1, 1, 5)] == expected
        assert stream.rng.bit_generator.state == scalar.bit_generator.state

    def test_settle_mid_block_then_more_draws(self):
        scalar, served = _pair(seed=3, predraws=1)
        stream = BoundedStream(served)
        for burst in (5, 0, 70, 1, 3 * _MAX_BLOCK, 2):
            expected = [int(scalar.integers(0, 7)) for _ in range(burst)]
            assert [stream.draw(7) for _ in range(burst)] == expected
            stream.settle()
            stream.settle()  # settling a settled stream changes nothing
            assert served.bit_generator.state == scalar.bit_generator.state

    def test_rng_property_settles_first(self):
        scalar, served = _pair(seed=6)
        stream = BoundedStream(served)
        expected = [int(scalar.integers(0, 9)) for _ in range(3)]
        assert [stream.draw(9) for _ in range(3)] == expected
        # the generator itself has run a block ahead of the three draws ...
        assert served.bit_generator.state != scalar.bit_generator.state
        # ... and reads as if it had not
        assert stream.rng.bit_generator.state == scalar.bit_generator.state
        assert stream.rng.integers(0, 2**40) == scalar.integers(0, 2**40)
        assert stream.draw(9) == int(scalar.integers(0, 9))

    def test_state_is_exact_after_an_exception_between_draws(self):
        scalar, served = _pair(seed=8, predraws=1)
        expected = [int(scalar.integers(0, 5)) for _ in range(70)]
        stream = BoundedStream(served)
        got = []
        with pytest.raises(RuntimeError):
            for _ in range(70):
                got.append(stream.draw(5))
            raise RuntimeError("the caller's loop failed")
        assert got == expected
        assert stream.rng.bit_generator.state == scalar.bit_generator.state

    def test_nonpositive_bound_rejected(self):
        scalar, served = _pair(seed=2)
        stream = BoundedStream(served)
        first = stream.draw(9)
        for bad in (0, -1):
            with pytest.raises(ParameterError):
                stream.draw(bad)
        assert first == int(scalar.integers(0, 9))
        # the rejected call drew nothing: the stream carries on
        assert stream.draw(4) == int(scalar.integers(0, 4))
        assert stream.rng.bit_generator.state == scalar.bit_generator.state


class ScriptedWords:
    """Stands in for a Generator and its bit generator: serves a fixed
    word list, so a test can hand ``BoundedStream`` the one-in-2**32 words
    that take the rejection branch."""

    def __init__(self, words):
        self.words = words
        self.position = 0
        self.bit_generator = self

    @property
    def state(self):
        return {"position": self.position}

    @state.setter
    def state(self, value):
        self.position = value["position"]

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        served = [
            self.words[(self.position + i) % len(self.words)]
            for i in range(size)
        ]
        self.position += size
        return np.array(served, dtype=np.uint32)


class TestLemireRejection:
    """For n = 3 numpy rejects a word whose product's low half is below
    ``(2**32 - 3) % 3 == 1``, i.e. only the word 0."""

    def test_rejected_word_is_skipped_and_counted(self):
        source = ScriptedWords([0, 0x80000000, 5, 6])
        # 0 rejected; 0x80000000 * 3 = 0x1_80000000 -> 1
        assert _served(source, [3]) == [1]
        assert source.position == 2

    def test_low_half_below_bound_but_not_below_threshold_is_kept(self):
        # 0xAAAAAAAB * 3 = 0x2_00000001: low half 1 < 3 takes the slow
        # check, 1 >= threshold 1 keeps the word.
        source = ScriptedWords([0xAAAAAAAB, 9])
        assert _served(source, [3]) == [2]
        assert source.position == 1

    def test_rejection_across_a_block_boundary(self):
        words = [7] * (_FIRST_BLOCK - 1) + [0, 0x80000000]
        source = ScriptedWords(words)
        served = _served(source, [3] * _FIRST_BLOCK)
        assert served == [0] * (_FIRST_BLOCK - 1) + [1]
        assert source.position == _FIRST_BLOCK + 1


class TestReduceWords:
    """``reduce_words(words, n)``, the bulk reduction a trapped walk's tail
    and ``skip`` use, word by word against ``draw(n)``: the value drawn,
    or -1 where the draw rejects the word and takes the next one."""

    @pytest.mark.parametrize("n", EDGE_BOUNDS[1:] + (2**31 + 1,))
    def test_matches_draw_word_by_word(self, n):
        words = np.random.default_rng(n % 997).integers(
            0, 2**32, size=200, dtype=np.uint32
        )
        # 0 is rejected wherever there is a threshold; 0xAAAAAAAB is kept
        # for n = 3 (low half 1, threshold 1) and rejected for n = 6 and
        # n = 2**31 + 1
        words[:4] = (0, 0xAAAAAAAB, 0x80000000, 2**32 - 1)
        reduced = reduce_words(words, n)
        assert reduced.dtype == np.int64
        for word, value in zip(words.tolist(), reduced.tolist()):
            source = ScriptedWords([word, 7])  # 7 is kept for every n here
            drawn = _served(source, [n])
            if value < 0:
                assert source.position == 2
            else:
                assert (drawn, source.position) == ([value], 1)


class TestSkip:
    """``skip(n, count)`` against ``count`` scalar draws: the generator
    state after ``settle()``, and the next draw."""

    @pytest.mark.parametrize("n", EDGE_BOUNDS + (2**31 + 1,))
    @pytest.mark.parametrize("count", [
        0, 1, _FIRST_BLOCK - 1, _FIRST_BLOCK, 4 * _MAX_BLOCK + 7,
        _MAX_BLOCK + 1, CHUNK_WORDS, 2 * CHUNK_WORDS + 7,
    ])
    @pytest.mark.parametrize("predraws", [0, 1])
    @pytest.mark.parametrize("drawn", [0, 5])
    def test_matches_scalar_draws(self, n, count, predraws, drawn):
        """``drawn`` draws from the stream first put the skip mid-block."""
        scalar, served = _pair(seed=count + n % 97, predraws=predraws)
        stream = BoundedStream(served)
        expected = [int(scalar.integers(0, 7)) for _ in range(drawn)]
        assert [stream.draw(7) for _ in range(drawn)] == expected
        for _ in range(count):
            scalar.integers(0, n)
        stream.skip(n, count)
        assert stream.draw(n) == int(scalar.integers(0, n))
        stream.settle()
        assert served.bit_generator.state == scalar.bit_generator.state
        assert served.random() == scalar.random()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        runs=st.lists(
            st.tuples(st.sampled_from(EDGE_BOUNDS), st.integers(0, 300)),
            min_size=1, max_size=6,
        ),
    )
    def test_skips_and_draws_interleaved(self, seed, runs):
        scalar, served = _pair(seed=seed, predraws=seed % 2)
        stream = BoundedStream(served)
        for n, count in runs:
            expected = [int(scalar.integers(0, n)) for _ in range(count)]
            stream.skip(n, count // 2)
            assert [stream.draw(n) for _ in range(count - count // 2)] == (
                expected[count // 2:]
            )
        assert stream.rng.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("rejected_at", [
        5,  # mid-block
        9,  # the last word of the slice: one more word is owed
        _FIRST_BLOCK - 1,  # the last word of the first block
        _FIRST_BLOCK,  # the first word of the refill
    ])
    def test_rejected_words_mid_block_and_at_a_refill(self, rejected_at):
        """For n = 3 only the word 0 is rejected (``TestLemireRejection``)."""
        words = [7] * (3 * _FIRST_BLOCK)
        words[rejected_at] = 0
        for count in (10, _FIRST_BLOCK, _FIRST_BLOCK + 3):
            source, drawn = ScriptedWords(words), ScriptedWords(words)
            stream = BoundedStream(source)
            stream.skip(3, count)
            stream.settle()
            _served(drawn, [3] * count)
            assert source.position == drawn.position == (
                count + (rejected_at < count)
            )

    @pytest.mark.parametrize("drawn, count, rejected", [
        # the word after the first fetch rejected too: a second top-up
        (0, 10, (5, 10)),
        # across a chunk: a rejection in each fetch and in the top-up
        (0, CHUNK_WORDS + 3, (CHUNK_WORDS - 1, CHUNK_WORDS + 1, CHUNK_WORDS + 3)),
        # a partly used block: the skip fetches its unused words again
        (5, 10, (8,)),
        (_FIRST_BLOCK - 2, 10, (_FIRST_BLOCK - 1, _FIRST_BLOCK)),
    ])
    def test_rejected_words_in_a_top_up_and_after_a_partly_used_block(
        self, drawn, count, rejected
    ):
        """For n = 3 only the word 0 is rejected; ``drawn`` draws come
        first, from a block of which the skip leaves the rest unused."""
        words = [7] * (2 * CHUNK_WORDS)
        for at in rejected:
            words[at] = 0
        source, scalar = ScriptedWords(words), ScriptedWords(words)
        stream = BoundedStream(source)
        for _ in range(drawn):
            stream.draw(3)
        stream.skip(3, count)
        stream.settle()
        _served(scalar, [3] * (drawn + count))
        assert source.position == scalar.position == (
            drawn + count + len(rejected)
        )

    def test_nonpositive_bound_rejected(self):
        scalar, served = _pair(seed=2)
        stream = BoundedStream(served)
        for bad in (0, -1):
            with pytest.raises(ParameterError):
                stream.skip(bad, 3)
        assert stream.draw(4) == int(scalar.integers(0, 4))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("count", [-1, -4097, 2.5, 3.0, True, None])
    def test_bad_count_rejected(self, n, count):
        """A count that is negative, not an integer or a boolean raises and
        consumes nothing."""
        scalar, served = _pair(seed=2)
        stream = BoundedStream(served)
        with pytest.raises(ParameterError):
            stream.skip(n, count)
        assert stream.draw(4) == int(scalar.integers(0, 4))

    def test_numpy_integer_count(self):
        scalar, served = _pair(seed=3)
        stream = BoundedStream(served)
        stream.skip(6, np.int64(70))
        for _ in range(70):
            scalar.integers(0, 6)
        assert stream.rng.bit_generator.state == scalar.bit_generator.state


class TestChoiceRows:
    """``choice_rows`` is ``Generator.choice(pop, size, replace=False)``
    called ``count`` times: its replay of the Floyd branch (numpy's
    Lemire rejection and the words consumed included), and the tail
    branch it leaves to numpy."""

    @staticmethod
    def _check(pop, size, count, seed=0, predraws=0,
               bit_generator=np.random.PCG64):
        """``choice_rows`` against numpy's calls."""
        scalar, bulk = _pair(bit_generator, seed=seed, predraws=predraws)
        expected = np.array(
            [scalar.choice(pop, size, replace=False) for _ in range(count)],
            dtype=np.int64,
        ).reshape(count, size)
        rows = choice_rows(bulk, pop, size, count)
        assert rows.dtype == np.int64 and rows.shape == (count, size)
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_equal(
            bulk.bit_generator.state, scalar.bit_generator.state
        )
        assert bulk.random() == scalar.random()

    @settings(max_examples=200, deadline=None)
    @given(
        pop=st.integers(1, 70),
        size=st.integers(0, 70),
        count=st.integers(0, 12),
        seed=st.integers(0, 2**32),
        predraws=st.integers(0, 3),
    )
    def test_matches_numpy_calls(self, pop, size, count, seed, predraws):
        self._check(pop, min(size, pop), count, seed, predraws)

    @pytest.mark.parametrize("pop, size", [
        (10000, 10000),  # Floyd: pop is not above 10_000
        (10001, 200),  # Floyd: size == pop // 50
        (10001, 201),  # tail shuffle, left to numpy: size > pop // 50
    ])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_both_branches_at_their_boundary(self, pop, size, count):
        self._check(pop, size, count, seed=pop + count, predraws=count % 2)

    @pytest.mark.parametrize("pop, size, count", [
        (2**32, 6, 40),  # a draw over [0, 2**32 - 1] takes the word as is
        (2**32 - 1, 7, 40),
        (2**31 + 1, 6, 60),  # rejects almost half the words
        (3 * 2**30 + 5, 5, 60),
        (2**31 + 1, 1, 200),
    ])
    def test_rejection_heavy_populations_near_2_32(self, pop, size, count):
        self._check(pop, size, count, seed=size, predraws=1)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
    ])
    def test_every_numpy_bit_generator(self, bit_generator):
        self._check(500, 20, 30, seed=3, predraws=1,
                    bit_generator=bit_generator)

    @pytest.mark.parametrize("pass_draws", [1, 7, 99, 100, 1000])
    def test_passes_of_any_size(self, monkeypatch, pass_draws):
        """Rows split across passes, down to one row a pass."""
        monkeypatch.setattr(rng_module, "_PASS_DRAWS", pass_draws)
        self._check(1000, 50, 23, seed=pass_draws)
        self._check(10001, 200, 3, seed=pass_draws)

    @pytest.mark.parametrize("pop, size, count", [
        (0, 0, 1), (2**32 + 1, 1, 1), (5, 6, 1), (5, -1, 1), (5, 2, -1),
    ])
    def test_invalid_arguments_rejected(self, pop, size, count):
        with pytest.raises(ParameterError):
            choice_rows(np.random.default_rng(0), pop, size, count)
