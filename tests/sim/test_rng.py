"""Tests for named random streams and the block-served bounded draw."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.sim.rng import _FIRST_BLOCK, _MAX_BLOCK, RandomStreams, bounded_draws


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

    def test_fork_creates_independent_family(self):
        base = RandomStreams(seed=5)
        fork = base.fork(1)
        assert fork.seed != base.seed
        a = base.get("x").random(4)
        b = fork.get("x").random(4)
        assert not np.allclose(a, b)

    def test_fork_is_deterministic(self):
        assert RandomStreams(seed=5).fork(2).seed == RandomStreams(seed=5).fork(2).seed

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RandomStreams(seed=-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            RandomStreams(seed=0).get("")

    def test_negative_salt_rejected(self):
        with pytest.raises(ParameterError):
            RandomStreams(seed=0).fork(-1)


def _pair(bit_generator=np.random.PCG64, seed=0, predraws=0):
    """Two generators in the same state, ``predraws`` scalar draws in (an
    odd count leaves PCG64 holding a buffered half-word)."""
    pair = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        for _ in range(predraws):
            rng.integers(0, 3)
        pair.append(rng)
    return pair


def _served(rng, bounds):
    draws = bounded_draws(rng)
    next(draws)
    try:
        return [draws.send(n) for n in bounds]
    finally:
        draws.close()


class TestBoundedDraws:
    """``bounded_draws`` re-implements numpy's bounded-integer reduction;
    these tests hold it to ``Generator.integers`` itself."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        predraws=st.integers(0, 3),
        bounds=st.lists(st.integers(1, 64), max_size=3 * _FIRST_BLOCK),
    )
    def test_sequence_and_final_state_match_scalar_draws(
        self, seed, predraws, bounds
    ):
        scalar, served = _pair(seed=seed, predraws=predraws)
        expected = [int(scalar.integers(0, n)) for n in bounds]
        assert _served(served, bounds) == expected
        assert served.bit_generator.state == scalar.bit_generator.state

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

    def test_state_is_exact_after_an_exception_between_draws(self):
        scalar, served = _pair(seed=8, predraws=1)
        expected = [int(scalar.integers(0, 5)) for _ in range(70)]
        draws = bounded_draws(served)
        next(draws)
        got = []
        with pytest.raises(RuntimeError):
            try:
                for _ in range(70):
                    got.append(draws.send(5))
                raise RuntimeError("the caller's loop failed")
            finally:
                draws.close()
        assert got == expected
        assert served.bit_generator.state == scalar.bit_generator.state

    def test_nonpositive_bound_rejected(self):
        scalar, served = _pair(seed=2)
        draws = bounded_draws(served)
        next(draws)
        first = draws.send(9)
        with pytest.raises(ParameterError):
            draws.send(0)
        assert first == int(scalar.integers(0, 9))
        assert served.bit_generator.state == scalar.bit_generator.state


class ScriptedWords:
    """Stands in for a Generator and its bit generator: serves a fixed
    word list, so a test can hand ``bounded_draws`` the one-in-2**32 words
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
