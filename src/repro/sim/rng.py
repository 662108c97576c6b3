"""Named, independently-seeded random streams.

Simulation components (topology construction, churn, query workload, walk
routing, ...) each draw from their own stream so that, e.g., changing the
query seed does not perturb the churn sequence. Streams are derived from a
single root seed with :class:`numpy.random.SeedSequence` spawning, which
guarantees statistical independence between streams.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = ["RandomStreams", "BoundedStream"]

#: Raw words fetched per refill: the first block after a settle is small
#: because a settled stream may be read after a handful of draws, later
#: blocks double up to the cap.
_FIRST_BLOCK = 64
_MAX_BLOCK = 1024


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
    ``distributions.c``, reached for every range below ``2**32``) is the
    one piece of numpy-internals knowledge in this code base, and
    ``tests/sim/test_rng.py`` holds it to the real thing: ``n == 1``
    consumes nothing; otherwise a word ``w`` maps to ``(w * n) >> 32``
    unless the low half of the product falls under ``(2**32 - n) % n``,
    in which case the word is rejected and the next one tried.

    Words are fetched past what ends up used, and a block is refilled
    only when exhausted, however many searches or queries it serves: the
    generator runs ahead of the draws until :meth:`settle` rewinds it to
    the state saved before the current block and re-draws only the words
    consumed from it. Whoever holds a stream therefore reads the
    generator through :attr:`rng`, which settles first; nobody else may
    keep a reference to it. A named stream's owner comes from
    :meth:`RandomStreams.bounded`, and :meth:`RandomStreams.get` settles
    it before handing the generator out.
    """

    __slots__ = ("_rng", "_saved", "_words", "_used")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._saved = None  # bit-generator state before the current block
        self._words: list[int] = []
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
                words = self._refill()
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

        A word is rejected iff the low half of ``word * n`` falls under
        ``(2**32 - n) % n`` (``draw``'s first test is only a shortcut past
        that modulo), so each slice of words taken yields its length minus
        its rejections in draws; a slice never asks for more words than
        draws are still owed, so the last word taken is an accepted one.
        """
        if n < 2:
            if n != 1:
                raise ParameterError(f"n must be >= 1, got {n}")
            return
        threshold = (0x100000000 - n) % n
        words = self._words
        used = self._used
        while count > 0:
            if used == len(words):
                words = self._refill()
                used = 0
            end = min(used + count, len(words))
            count -= end - used
            if threshold:
                count += sum(
                    1 for word in words[used:end]
                    if (word * n) & 0xFFFFFFFF < threshold
                )
            used = end
        self._used = used

    def _refill(self) -> list[int]:
        """Fetch the next block of raw words, saving the state before it."""
        rng = self._rng
        self._saved = rng.bit_generator.state
        block = min(max(2 * len(self._words), _FIRST_BLOCK), _MAX_BLOCK)
        words = self._words = rng.integers(
            0, 1 << 32, size=block, dtype=np.uint32
        ).tolist()
        self._used = 0
        return words

    def settle(self) -> None:
        """Put the generator where the draws so far would have left it."""
        if self._saved is not None:
            rng = self._rng
            rng.bit_generator.state = self._saved
            rng.integers(0, 1 << 32, size=self._used, dtype=np.uint32)
            self._saved = None
            self._words = []
            self._used = 0


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

    def fork(self, salt: int) -> "RandomStreams":
        """Return a new independent family of streams (e.g. per repetition)."""
        if salt < 0:
            raise ParameterError(f"salt must be >= 0, got {salt}")
        return RandomStreams(seed=hash((self.seed, salt)) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
