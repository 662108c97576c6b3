"""Differential test: a trapped search's bulk tail against the loop it
replaced.

``move_and_draw`` is ``RandomWalkSearch._run_out``'s loop for a component
that is neither a pair nor a star as it was before the tail ran in bulk,
kept verbatim: per remaining step, per walker, a forced move or one draw
reduced inline from the stream's word block (a word that may be rejected
goes to ``BoundedStream.draw``). ``_run_out`` must leave the stream
exactly where that loop does, for any component, walkers and count of
remaining steps; the property generates online components of 3-8 peers
(trees and cyclic graphs, stars among them), 1-16 walkers anywhere in
them and 0-1,200 remaining steps, so that runs cross the 4,096-word chunk
seam, and serves words with Lemire-rejected ones injected for the fanouts
present.

Mutations of the bulk tail (``random_walk._walk_tail`` and
``sim.rng.reduce_words``), each caught by
``test_run_out_equals_the_move_and_draw_loop``:

* a row indexed by walker-step instead of by words taken (``row[s * k +
  w]`` for ``row[u]``);
* a leaf taking a word (``u += 1`` on the leaf's forced move);
* a chunk seam losing or double-counting a word (``repay(u - 1)`` or
  ``repay(u + 1)``);
* a rejection ignored: the rejected word not flagged by
  ``reduce_words`` (so reduced as an accepted one), or the flag not
  followed by the walker loop (``while pick < 0`` never entered);
* a chunk not topped up for its rejections (``short`` computed without
  them): a walker then runs off the end of its row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.node import PeerPopulation
from repro.sim.rng import CHUNK_WORDS, BoundedStream
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.random_walk import RandomWalkSearch

from test_walk_equivalence import ScriptedWords


def move_and_draw(stream, positions, neighbors_of, remaining):
    words, used = stream.open_block()
    try:
        for _ in range(remaining):
            for i, position in enumerate(positions):
                neighbors = neighbors_of[position]
                fanout = len(neighbors)
                if fanout > 1:
                    # BoundedStream.draw(fanout), inline (see search).
                    if used == len(words):
                        words = stream.next_block()
                        used = 0
                    product = words[used] * fanout
                    used += 1
                    if product & 0xFFFFFFFF < fanout:
                        stream.close_block(used - 1)
                        positions[i] = neighbors[stream.draw(fanout)]
                        words, used = stream.open_block()
                    else:
                        positions[i] = neighbors[product >> 32]
                else:
                    positions[i] = neighbors[0]
    finally:
        stream.close_block(used)


def rejected_word(fanout: int, low: int, high: int) -> int:
    """A word numpy's reduction rejects for ``fanout``: ``word * fanout``
    has a low half under ``(2**32 - fanout) % fanout``. ``low`` and
    ``high`` pick one of them."""
    threshold = (2**32 - fanout) % fanout
    assert threshold
    shift = (fanout & -fanout).bit_length() - 1  # fanout = 2**shift * odd
    odd = fanout >> shift
    rest = 32 - shift
    target = (low % threshold) >> shift << shift  # divisible by 2**shift
    word = (target >> shift) * pow(odd, -1, 1 << rest) % (1 << rest)
    word += (high % (1 << shift)) << rest
    assert (word * fanout) % 2**32 < threshold
    return word


@st.composite
def components(draw):
    """A connected graph of 3-8 peers with arbitrary global ids and
    neighbour orders, as an online-adjacency table over 64 ids."""
    size = draw(st.integers(3, 8))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, size)}
    for a, b in draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        max_size=6,
    )):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    ids = draw(st.lists(
        st.integers(0, 63), min_size=size, max_size=size, unique=True
    ))
    neighbors_of = [()] * 64
    for local in range(size):
        adjacent = [ids[b if a == local else a] for a, b in edges
                    if local in (a, b)]
        neighbors_of[ids[local]] = tuple(draw(st.permutations(adjacent)))
    return ids, neighbors_of


def _stream_after(run, words, positions, neighbors_of, remaining):
    """Where ``run`` leaves a stream over ``words``: the words taken once
    settled, and the draws that follow. (The walker's overlay is never
    read; the tail gets its own adjacency table.)"""
    source = ScriptedWords(words)
    overlay = UnstructuredOverlay(
        PeerPopulation(2), np.random.Generator(np.random.PCG64(0)), degree=1
    )
    walker = RandomWalkSearch(overlay, source, walkers=len(positions))
    run(walker, list(positions), neighbors_of, remaining)
    stream = walker._stream
    stream.settle()
    taken = source.position
    return taken, [stream.draw(n) for n in (3, 5, 6, 7, 2**31 + 1)]


def _oracle(walker, positions, neighbors_of, remaining):
    move_and_draw(walker._stream, positions, neighbors_of, remaining)


def _bulk(walker, positions, neighbors_of, remaining):
    component = {peer for peer, row in enumerate(neighbors_of) if row}
    walker._run_out(positions, neighbors_of, component, remaining)


@settings(max_examples=120, deadline=None)
@given(
    component=components(),
    walkers=st.lists(st.integers(0, 7), min_size=1, max_size=16),
    remaining=st.integers(0, 1200),
    seed=st.integers(0, 2**32 - 1),
    rejections=st.lists(
        st.tuples(st.integers(0, 24_000), st.integers(0, 7),
                  st.integers(0, 2**32 - 1)),
        max_size=40,
    ),
)
@example(  # K4, 16 walkers: every walker-step takes a word, so the first
    # chunk's seam is word 4,096, and the rejected words around it make
    # the chunk top up twice
    component=(
        [0, 1, 2, 3],
        [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)] + [()] * 60,
    ),
    walkers=list(range(4)) * 4,
    remaining=1200,
    seed=7,
    rejections=[(CHUNK_WORDS + d, 0, 0) for d in (-2, -1, 0, 1)],
)
def test_run_out_equals_the_move_and_draw_loop(
    component, walkers, remaining, seed, rejections
):
    ids, neighbors_of = component
    positions = [ids[w % len(ids)] for w in walkers]
    rng = np.random.Generator(np.random.PCG64(seed))
    words = rng.integers(0, 2**32, size=30_000, dtype=np.uint32).tolist()
    rejecting = sorted(
        {len(n) for n in neighbors_of if (2**32 - len(n)) % max(len(n), 1)}
    )
    if rejecting:
        for at, pick, choice in sorted(rejections, reverse=True):
            fanout = rejecting[pick % len(rejecting)]
            words.insert(at, rejected_word(fanout, choice, choice >> 8))
    expected = _stream_after(_oracle, words, positions, neighbors_of, remaining)
    actual = _stream_after(_bulk, words, positions, neighbors_of, remaining)
    assert actual == expected


@pytest.mark.parametrize("fanout", [3, 5, 6, 7, 12, 2**31 + 1])
def test_rejected_word_is_rejected(fanout):
    """The helper's words take ``BoundedStream.draw``'s rejection branch:
    a stream served one and then the word 7 draws what 7 alone gives."""
    for low, high in ((0, 0), (1, 1), (2**31, 2**20)):
        stream = BoundedStream(ScriptedWords([rejected_word(fanout, low, high), 7]))
        assert stream.draw(fanout) == (7 * fanout) >> 32
