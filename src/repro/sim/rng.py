"""Named, independently-seeded random streams.

Simulation components (topology construction, churn, query workload, walk
routing, ...) each draw from their own stream so that, e.g., changing the
query seed does not perturb the churn sequence. Streams are derived from a
single root seed with :class:`numpy.random.SeedSequence` spawning, which
guarantees statistical independence between streams.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError, require_count

__all__ = ["RandomStreams", "BoundedStream", "choice_rows", "reduce_words"]

#: Raw words fetched per refill: the first block after a settle is small
#: because a settled stream may be read after a handful of draws, later
#: blocks double up to the cap.
_FIRST_BLOCK = 64
_MAX_BLOCK = 1024

#: Most raw words a bulk consumer (:meth:`BoundedStream.skip`, a trapped
#: walk's tail) holds at once, which keeps its transient arrays O(chunk).
CHUNK_WORDS = 4096

#: Draws :func:`choice_rows` replays per pass, which keeps each of its
#: transient arrays under ~1 MB whatever the population size.
_PASS_DRAWS = 1 << 15

#: ``Generator.choice(pop, size, replace=False)`` shuffles the tail of a
#: full ``arange(pop)`` instead of running Floyd's algorithm when
#: ``pop > _TAIL_MIN_POP and size > pop // _TAIL_DIVISOR``.
_TAIL_MIN_POP = 10_000
_TAIL_DIVISOR = 50


class BoundedStream:
    """Owns ``rng`` and serves ``int(rng.integers(0, n))`` from it, cheaper.

    :meth:`draw` returns, for ``1 <= n <= 2**32``, exactly the value the
    scalar call would have returned, :meth:`skip` consumes what a run of
    such calls would without their values, and :meth:`settle` leaves
    ``rng.bit_generator.state`` exactly where those scalar calls would
    have left it — so a hot loop can swap one for the other and no later
    consumer of the generator can tell. A scalar ``Generator.integers``
    call costs ~2 us of dispatch; this draws the raw 32-bit words numpy
    would have consumed a block at a time and applies numpy's own
    bounded-integer reduction to them in Python.

    That reduction (``bounded_lemire_uint32`` in numpy's
    ``distributions.c``, reached for every range below ``2**32``) is one
    of the two pieces of numpy-internals knowledge in this code base:
    ``n == 1`` consumes nothing; otherwise a word ``w`` maps to
    ``(w * n) >> 32`` unless the low half of the product falls under
    ``(2**32 - n) % n``, in which case the word is rejected and the next
    one tried. The other is how ``Generator.choice(pop, size,
    replace=False)`` spends such draws on Floyd's algorithm and a shuffle
    of its picks, which :func:`choice_rows` replays (numpy's other
    branch, a tail shuffle of ``arange(pop)``, it leaves to numpy).
    ``tests/sim/test_rng.py`` holds both to the real thing.

    Words are fetched past what ends up used, and a block is refilled
    only when exhausted, however many searches or queries it serves: the
    generator runs ahead of the draws until :meth:`settle` rewinds it to
    the state saved before the current block and re-draws only the words
    consumed from it. Whoever holds a stream therefore reads the
    generator through :attr:`rng`, which settles first; nobody else may
    keep a reference to it. A named stream's owner comes from
    :meth:`RandomStreams.bounded`, and :meth:`RandomStreams.get` settles
    it before handing the generator out.

    A hot loop may apply the reduction itself on the block
    (:meth:`open_block`, :meth:`next_block`, :meth:`close_block`), as
    the k-walker search does once per hop; a bulk consumer borrows raw
    words as an array and repays the ones it used (:meth:`borrow`,
    :meth:`repay`), as a trapped walk's tail does a chunk at a time.
    """

    __slots__ = ("_rng", "_saved", "_words", "_used")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._saved = None  # bit-generator state before the current block
        self._words: list[int] | None = []  # None while words are lent
        self._used = 0  # words consumed from the current block

    @property
    def rng(self) -> np.random.Generator:
        """The generator, settled: in the state scalar draws leave it in."""
        self.settle()
        return self._rng

    def draw(self, n: int) -> int:
        """``int(rng.integers(0, n))``."""
        if n < 2:
            if n != 1:
                raise ParameterError(f"n must be >= 1, got {n}")
            return 0
        words = self._words
        used = self._used
        while True:
            if used == len(words):
                words = self.next_block()
                used = 0
            product = words[used] * n
            used += 1
            leftover = product & 0xFFFFFFFF
            if leftover >= n or leftover >= (0x100000000 - n) % n:
                self._used = used
                return product >> 32

    def skip(self, n: int, count: int) -> None:
        """Consume exactly what ``count`` calls of ``draw(n)`` would, rejected
        words included, without producing the values.

        The draws so far are settled first, then the words owed are fetched
        straight from the generator, at most :data:`CHUNK_WORDS` a call;
        each fetch yields its length minus its rejections
        (:func:`reduce_words`) in draws. A fetch never asks for more words
        than draws are still owed, so the last word taken is an accepted
        one and the stream ends settled.
        """
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        require_count("count", count, 0)
        if n == 1 or not count:
            return
        self.settle()
        rng = self._rng
        count = int(count)
        while count > 0:
            words = rng.integers(
                0, 1 << 32, size=min(count, CHUNK_WORDS), dtype=np.uint32
            )
            count -= len(words)
            count += int(np.count_nonzero(reduce_words(words, n) < 0))

    def open_block(self) -> tuple[list[int], int]:
        """The current word block and how many of its words are used.

        For a loop that applies :meth:`draw`'s reduction inline: it takes
        words from the block in order, calls :meth:`next_block` when the
        block is used up, and hands the count back with
        :meth:`close_block` before anything else draws from the stream.
        """
        return self._words, self._used

    def close_block(self, used: int) -> None:
        """Record that ``used`` words of the current block are consumed."""
        self._used = used

    def next_block(self) -> list[int]:
        """Fetch the next block of raw words, saving the state before it;
        none of it is used yet."""
        rng = self._rng
        self._saved = rng.bit_generator.state
        block = min(max(2 * len(self._words), _FIRST_BLOCK), _MAX_BLOCK)
        words = self._words = rng.integers(
            0, 1 << 32, size=block, dtype=np.uint32
        ).tolist()
        self._used = 0
        return words

    def borrow(self, count: int) -> np.ndarray:
        """The next ``count`` raw words as a uint32 array, lent: none of
        them counts as used until :meth:`repay`.

        The first call settles the draws so far and saves the state the
        words start from; a second call before :meth:`repay` continues
        where the first ended, so a bulk consumer may fetch more than it
        will use and top up a chunk it finds short. Nothing else may draw
        from the stream while words are lent.
        """
        rng = self._rng
        if self._words is not None:
            self.settle()
            self._saved = rng.bit_generator.state
            self._words = None  # lent: a draw now fails loudly
        return rng.integers(0, 1 << 32, size=count, dtype=np.uint32)

    def repay(self, used: int) -> None:
        """End a loan: the first ``used`` words lent count as consumed, the
        rest go back, and the generator stands after the ones used."""
        self._words = []
        self._used = used
        self.settle()

    def settle(self) -> None:
        """Put the generator where the draws so far would have left it."""
        if self._saved is not None:
            rng = self._rng
            rng.bit_generator.state = self._saved
            rng.integers(0, 1 << 32, size=self._used, dtype=np.uint32)
            self._saved = None
            self._words = []
            self._used = 0


def reduce_words(words: np.ndarray, n: int) -> np.ndarray:
    """What :meth:`BoundedStream.draw` makes of each of ``words`` (raw
    uint32 words) for ``2 <= n <= 2**32``, as an int64 array:
    ``(word * n) >> 32``, or -1 where numpy's reduction rejects the word
    (the low half of ``word * n`` under ``(2**32 - n) % n``) and a draw
    takes the next word instead."""
    product = words.astype(np.uint64) * np.uint64(n)
    draws = (product >> np.uint64(32)).astype(np.int64)
    threshold = (0x100000000 - n) % n
    if threshold:
        draws[(product & np.uint64(0xFFFFFFFF)) < threshold] = -1
    return draws


def choice_rows(
    rng: np.random.Generator, pop: int, size: int, count: int
) -> np.ndarray:
    """``count`` calls of ``rng.choice(pop, size, replace=False)``, stacked.

    Row ``k`` of the ``(count, size)`` int64 result is what the ``k``-th
    call would have returned, and ``rng.bit_generator.state`` ends where
    the calls would have left it.

    When numpy takes Floyd's algorithm (not ``pop > 10_000 and size >
    pop // 50``), the calls' bounded draws are a fixed sequence of bounds,
    so their words are fetched with ``integers(0, 2**32, dtype=uint32)`` —
    exactly as many as the draws take, rejected ones included — and
    reduced as :class:`BoundedStream` does; then numpy's use of them is
    replayed, a pass of rows at a time: for ``j`` from ``pop - size`` to
    ``pop - 1`` pick a draw in ``[0, j]``, or ``j`` itself when the draw
    was picked before, then a Fisher-Yates shuffle of the picks, ``i``
    from ``size - 1`` down to 1 swapped with a draw in ``[0, i]``. A draw
    in ``[0, 0]`` takes no word.

    numpy's other branch, a tail shuffle of ``arange(pop)``, is made
    through ``rng.choice`` itself, one call a row: no scenario reaches it
    (they replicate 50-fold, and ``50 <= pop // 50`` once ``pop`` passes
    ``10_000``).
    """
    if not 1 <= pop <= 1 << 32:
        raise ParameterError(f"pop must be in [1, 2**32], got {pop}")
    if not 0 <= size <= pop:
        raise ParameterError(f"size must be in [0, {pop}], got {size}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    out = np.empty((count, size), dtype=np.int64)
    if pop > _TAIL_MIN_POP and size > pop // _TAIL_DIVISOR:
        for row in range(count):
            out[row] = rng.choice(pop, size, replace=False)
        return out
    if size == 0:
        return out
    low = pop - size
    bounds = np.concatenate([
        np.arange(low + 1, pop + 1, dtype=np.uint64),
        np.arange(size, 1, -1, dtype=np.uint64),
    ])
    rows_per_pass = max(1, _PASS_DRAWS // len(bounds))
    for start in range(0, count, rows_per_pass):
        stop = min(start + rows_per_pass, count)
        draws = _bounded(rng, bounds, stop - start)
        out[start:stop] = _floyd(draws, low, size)
    return out


def _bounded(
    rng: np.random.Generator, bounds: np.ndarray, rows: int
) -> np.ndarray:
    """``int(rng.integers(0, n))`` for every ``n`` of ``bounds``, for
    ``rows`` runs of them in order, as a ``(rows, len(bounds))`` int64
    array; takes exactly the words those calls would."""
    drawing = bounds > 1  # n == 1 takes no word
    n = bounds[drawing]
    threshold = np.tile((np.uint64(1 << 32) - n) % n, rows)
    n = np.tile(n, rows)
    words = rng.integers(0, 1 << 32, size=len(n), dtype=np.uint32)
    words = words.astype(np.uint64)
    reduced = np.empty(len(n), dtype=np.int64)
    done = 0
    while True:
        # Each rejected word so far shifts the rest of the draws by one.
        product = words[done + len(words) - len(n):] * n[done:]
        rejected = np.flatnonzero((product & 0xFFFFFFFF) < threshold[done:])
        if not len(rejected):
            reduced[done:] = product >> 32
            break
        first = rejected[0]
        reduced[done:done + first] = product[:first] >> 32
        done += first
        more = rng.integers(0, 1 << 32, size=1, dtype=np.uint32)
        words = np.concatenate([words, more.astype(np.uint64)])
    if drawing.all():
        return reduced.reshape(rows, -1)
    values = np.zeros((rows, len(bounds)), dtype=np.int64)
    values[:, drawing] = reduced.reshape(rows, -1)
    return values


def _floyd(draws: np.ndarray, low: int, size: int) -> np.ndarray:
    """Floyd's picks and their shuffle, one row per call (``draws``:
    ``size`` draws in ``[0, j]`` then ``size - 1`` in ``[0, i]``).

    A draw was picked before iff its row drew the same value earlier
    (it was picked then, or had been already) or it is a ``j`` picked in
    place of such a repeat — so no flag array grows with the population:
    the repeats come from sorting each row's draws, and the ``j`` picks
    take one flag per (row, ``j``).
    """
    rows = len(draws)
    every = np.arange(rows, dtype=np.int64)
    # Draw values with their column in the low digits: a row's sort puts
    # equal values in draw order (pop * size < 2**63 for any row that
    # fits in memory).
    ranked = np.sort(draws[:, :size] * size + np.arange(size), axis=1)
    value, column = np.divmod(ranked, size)
    repeat = value[:, 1:] == value[:, :-1]
    repeated = np.zeros((rows, size), dtype=bool)
    repeated[np.nonzero(repeat)[0], column[:, 1:][repeat]] = True
    repeated = repeated.T.copy()
    draws = draws.T.copy()  # one column per row from here on
    drawn = draws[:size]
    # The flag of j = low + c for row r is at c * rows + r; a draw below
    # low reads the one flag past them, never set.
    slots = np.where(drawn >= low, (drawn - low) * rows + every, size * rows)
    taken = np.zeros(size * rows + 1, dtype=bool)
    picks = np.empty((size, rows), dtype=np.int64)
    for c in range(size):
        again = repeated[c] | taken[slots[c]]
        picks[c] = np.where(again, low + c, drawn[c])
        taken[c * rows:(c + 1) * rows] = again
    flat = picks.reshape(-1)
    for step, i in enumerate(range(size - 1, 0, -1)):
        there = draws[size + step] * rows + every
        swapped = flat[there]
        flat[there] = picks[i]
        picks[i] = swapped
    return picks.T


class RandomStreams:
    """A factory of named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> streams = RandomStreams(seed=7)
    >>> churn = streams.get("churn")
    >>> queries = streams.get("queries")
    >>> churn is streams.get("churn")   # streams are cached by name
    True

    A stream drawn through a :class:`BoundedStream` (:meth:`bounded`) has
    that one owner; :meth:`get` still returns its generator, settled, so
    the state read by name is always the state the draws so far imply —
    but draw from the owner, and do not keep the generator across its
    draws.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._bounded: dict[str, BoundedStream] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The stream's seed is derived from the root seed and a stable hash of
        the name, so the same (seed, name) pair always yields the same
        stream regardless of creation order.
        """
        if not name:
            raise ParameterError("stream name must be non-empty")
        if name not in self._streams:
            # Stable per-name entropy: name bytes folded into the seed
            # sequence. Avoids order dependence of SeedSequence.spawn().
            name_entropy = [b for b in name.encode("utf-8")]
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=tuple(name_entropy)
            )
            self._streams[name] = np.random.Generator(np.random.PCG64(child))
        owner = self._bounded.get(name)
        if owner is not None:
            owner.settle()
        return self._streams[name]

    def bounded(self, name: str) -> BoundedStream:
        """The :class:`BoundedStream` that owns stream ``name`` (one per
        name, created on first use)."""
        owner = self._bounded.get(name)
        if owner is None:
            owner = self._bounded[name] = BoundedStream(self.get(name))
        return owner

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
