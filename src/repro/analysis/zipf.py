"""Zipf query-popularity machinery (paper Eq. 3 and Eq. 4).

The paper assumes queries for keys are Zipf distributed with exponent
``alpha`` over a finite universe of ``keys`` unique keys [Srip01]:

    prob(rank) = rank^-alpha / sum_{x=1}^{keys} x^-alpha            (Eq. 3)

With ``numPeers`` peers each issuing ``fQry`` queries per round, the
probability that the key at a given rank is queried *at least once* in one
round is

    probT(rank) = 1 - (1 - prob(rank))^(numPeers * fQry)            (Eq. 4)

``numPeers * fQry`` is in general fractional (e.g. 20,000 peers issuing one
query every two hours each is ~2.78 queries/s network-wide); the paper
plugs it into the exponent unchanged, and so do we.

Eq. 3 is computed once per ``(n_keys, alpha)`` per process, by
:func:`rank_probabilities`, and that one read-only array is what every
:class:`ZipfDistribution` of the pair references. A distribution adds
its own CDF, which only drawing and quantiles read; the closed-form
planning reads the cached probabilities directly and builds none.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.obs import counted_cache

__all__ = ["ZipfDistribution", "rank_probabilities", "truncated_zeta"]

#: Uniforms inverted per pass of :meth:`ZipfDistribution.draw_into`. The
#: pass keeps a handful of temporaries of this length, so a draw of any
#: size costs O(chunk) memory and the temporaries stay cache-resident.
#: ``rng.random(a)`` then ``rng.random(b)`` is the stream of
#: ``rng.random(a + b)``, so chunking never shows in the result.
DRAW_CHUNK = 1 << 15

#: Draws shorter than this go straight to ``np.searchsorted``: one C call
#: beats the guide search's ~20 numpy calls on a few dozen uniforms (the
#: event engine's per-round draws), and no guide table is ever built for
#: a process that only draws like that.
GUIDE_MIN_DRAW = 1 << 10

#: Cap on the guide table's bucket count: int32 entries, so 1 MiB — small
#: enough to stay in L2 next to a chunk's temporaries, and a few ms to
#: build whatever the key count.
_GUIDE_MAX_BUCKETS = 1 << 18


@counted_cache("zipf_probs", maxsize=128)
def rank_probabilities(n_keys: int, alpha: float) -> np.ndarray:
    """Eq. 3 for ranks ``1..n_keys``: the one copy per ``(n_keys, alpha)``.

    Read-only, shared by every :class:`ZipfDistribution` of the pair and
    by the closed-form planning (:mod:`~repro.analysis.selection_model`,
    :mod:`~repro.analysis.threshold`), which reads it without building a
    distribution or its CDF. Arguments are not validated: callers have
    (``ZipfDistribution``, ``ScenarioParameters``).
    """
    probs = np.arange(1, n_keys + 1, dtype=np.float64) ** (-alpha)
    probs /= float(probs.sum())
    probs.flags.writeable = False
    return probs


@counted_cache("zipf_guide", maxsize=8)
def _guide_slot(n_keys: int, alpha: float) -> list:
    """Process-wide home of the guide table of ``(n_keys, alpha)``.

    Starts empty; the first :class:`ZipfDistribution` to make a large
    draw fills it from the CDF it already holds (so nothing O(n_keys) is
    rebuilt, and the cache never keeps a CDF alive), every later instance
    reuses it. A miss is therefore a table build. The table hangs off no
    instance: it is neither pickled nor staged into shared memory with a
    workload — a pool worker builds its own, a few ms, the first time it
    needs one.
    """
    return []


def _build_guide(cdf: np.ndarray) -> tuple[int, np.ndarray, int]:
    """Guide table (Chen & Asau 1974) over a CDF: ``(buckets, table, stride)``.

    ``table[b]`` is ``searchsorted(cdf, b / buckets, "left")``, so for a
    uniform ``u`` in bucket ``b = floor(u * buckets)`` the inversion lies
    in ``[table[b], table[b + 1]]``; ``stride`` is the power of two above
    the widest such interval, i.e. where a binary descent from
    ``table[b]`` has to start to cover it. ``buckets`` is a power of two
    — ``u * buckets`` and ``b / buckets`` are then exact in binary
    floating point, which is what makes the bucket bounds hold for every
    ``u`` rather than for most — sized from the key count and capped so
    the table is never bigger than the CDF it indexes, nor than 1 MiB.
    """
    buckets = min(1 << (cdf.size.bit_length() - 1), _GUIDE_MAX_BUCKETS)
    # The descent probes at most two widths past a bound: int32 holds it
    # for any CDF that fits in memory, at half the bandwidth.
    table = np.empty(
        buckets + 1, dtype=np.int32 if 4 * cdf.size < 2**31 else np.int64
    )
    # Filled a chunk of edges at a time: the full edge vector, an int64
    # table and its differences are a 6 MiB transient on top of a built
    # kernel, enough to move a sweep's peak RSS by themselves.
    widest = 0
    for lo in range(0, buckets + 1, DRAW_CHUNK):
        hi = min(lo + DRAW_CHUNK, buckets + 1)
        table[lo:hi] = np.searchsorted(
            cdf, np.arange(lo, hi) / buckets, side="left"
        )
        # From one entry back, so the interval across the seam counts.
        widest = int(np.diff(table[max(lo - 1, 0) : hi]).max(initial=widest))
    table.flags.writeable = False  # shared by every instance in the process
    return buckets, table, 1 << widest.bit_length()


def truncated_zeta(n_keys: int, alpha: float) -> float:
    """Return the truncated zeta normaliser ``sum_{x=1}^{n_keys} x^-alpha``.

    This is the denominator of Eq. 3. Unlike the Riemann zeta function it is
    finite for every ``alpha`` (including ``alpha <= 1``) because the sum is
    truncated at ``n_keys``.
    """
    if n_keys < 1:
        raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
    return float((np.arange(1, n_keys + 1, dtype=np.float64) ** (-alpha)).sum())


def _check_query_rate(queries_per_round: float) -> None:
    if queries_per_round < 0:
        raise ParameterError(
            f"queries_per_round must be >= 0, got {queries_per_round}"
        )


def _at_least_once(probs, queries_per_round: float):
    """Eq. 4 for a positive rate, on one Eq. 3 probability or a vector.

    ``1 - (1 - p)^n`` computed stably as ``-expm1(n * log1p(-p))``. For
    the degenerate single-key universe ``p = 1`` and ``log1p(-1) = -inf``,
    which still yields the correct probability of 1; hide the warning.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.expm1(queries_per_round * np.log1p(-probs))


class ZipfDistribution:
    """Finite Zipf distribution over key ranks ``1..n_keys``.

    Parameters
    ----------
    n_keys:
        Number of unique keys in the system (``keys`` in the paper).
    alpha:
        Zipf exponent. The paper uses ``alpha = 1.2`` as observed for
        Gnutella queries in [Srip01]. ``alpha = 0`` yields the uniform
        distribution, which is a useful degenerate case in tests.
    """

    def __init__(self, n_keys: int, alpha: float) -> None:
        if n_keys < 1:
            raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
        if alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {alpha}")
        self.n_keys = int(n_keys)
        self.alpha = float(alpha)
        self._probs = rank_probabilities(self.n_keys, self.alpha)
        self._cumulative = np.cumsum(self._probs)

    # ------------------------------------------------------------------
    # Eq. 3
    # ------------------------------------------------------------------
    def prob(self, rank: int) -> float:
        """Probability that a random query targets the key at ``rank`` (Eq. 3)."""
        self._check_rank(rank)
        return float(self._probs[rank - 1])

    def probs(self) -> np.ndarray:
        """Vector of Eq. 3 probabilities for ranks ``1..n_keys`` (read-only)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Eq. 4
    # ------------------------------------------------------------------
    def prob_queried(self, rank: int, queries_per_round: float) -> float:
        """Probability the key at ``rank`` is queried >= once per round (Eq. 4).

        ``queries_per_round`` is the network-wide query rate
        ``numPeers * fQry``; it may be fractional.

        Evaluates Eq. 4 on the one element ``probs()[rank - 1]`` — O(1),
        which is what keeps the threshold bisection O(log n) — and is
        bit-identical to ``probs_queried(queries_per_round)[rank - 1]``.
        That holds because both go through the same numpy ufuncs:
        ``math.log1p`` / ``math.expm1`` (libm) differ from numpy's
        vectorised loops in the last ulp on some CPUs, which is enough to
        move ``maxRank`` by one.
        """
        self._check_rank(rank)
        _check_query_rate(queries_per_round)
        if queries_per_round == 0:
            return 0.0
        return float(_at_least_once(self._probs[rank - 1], queries_per_round))

    def probs_queried(self, queries_per_round: float) -> np.ndarray:
        """Vector of Eq. 4 probabilities for all ranks."""
        _check_query_rate(queries_per_round)
        if queries_per_round == 0:
            return np.zeros_like(self._probs)
        return _at_least_once(self._probs, queries_per_round)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def head_mass(self, max_rank: int) -> float:
        """Total query probability of the ``max_rank`` most popular keys.

        This is Eq. 5 of the paper (``pIndxd`` under ideal partial indexing)
        when ``max_rank = maxRank``.
        """
        if max_rank <= 0:
            return 0.0
        max_rank = min(max_rank, self.n_keys)
        return float(self._cumulative[max_rank - 1])

    def sample_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` query ranks (1-based) i.i.d. from the distribution."""
        if size < 0:
            raise ParameterError(f"size must be >= 0, got {size}")
        ranks = np.empty(size, dtype=np.int64)
        self.draw_into(rng, ranks)
        return ranks

    def draw_into(
        self,
        rng: np.random.Generator,
        ranks: np.ndarray,
        keys: np.ndarray | None = None,
        rank_to_key: np.ndarray | None = None,
    ) -> None:
        """Fill ``ranks`` with i.i.d. query ranks (1-based), in place.

        With ``keys`` and ``rank_to_key`` (both or neither), the same
        pass also writes ``keys[i] = rank_to_key[ranks[i] - 1]``. Works
        through the buffers :data:`DRAW_CHUNK` uniforms at a time; the
        ranks and the generator's state afterwards are those of
        ``searchsorted(cdf, rng.random(ranks.size)) + 1``.
        """
        guide = self._guide() if ranks.size >= GUIDE_MIN_DRAW else None
        for lo in range(0, ranks.size, DRAW_CHUNK):
            hi = min(lo + DRAW_CHUNK, ranks.size)
            index = self._invert(rng.random(hi - lo), guide)
            np.add(index, 1, out=ranks[lo:hi])
            if keys is not None:
                np.take(rank_to_key, index, out=keys[lo:hi], mode="clip")

    def _guide(self) -> tuple[int, np.ndarray, int]:
        """This distribution's guide table, built at most once per process."""
        slot = _guide_slot(self.n_keys, self.alpha)
        if not slot:
            slot.append(_build_guide(self._cumulative))
        return slot[0]

    def _invert(
        self,
        uniforms: np.ndarray,
        guide: tuple[int, np.ndarray, int] | None,
    ) -> np.ndarray:
        """0-based index of the first CDF entry ``>= u``, per uniform in [0, 1).

        That is ``searchsorted(cdf, u, "left")``, i.e. the number of CDF
        entries below ``u`` (with CDF ties, the first of them), clamped
        to the last key: ``cumsum`` stops a few ulp short of 1, and a
        uniform in that sliver belongs to the last rank, not one past it.
        Searched through ``guide`` when the caller has one.
        """
        cdf = self._cumulative
        if guide is None:
            index = np.searchsorted(cdf, uniforms)
        else:
            buckets, table, stride = guide
            bucket = (uniforms * buckets).astype(np.intp)
            index = table[bucket]
            # A bucket that holds no CDF entry (most of them, under a
            # skewed law) has equal bounds: the answer already. For the
            # rest, a binary descent from the lower bound: take each
            # stride whose landing entry is still below u. Reads past
            # the end clip to the last entry, which is either >= u (not
            # taken, correctly) or below it (clamped afterwards).
            bucket += 1
            unsettled = np.flatnonzero(table[bucket] != index)
            targets = uniforms[unsettled]
            refined = index[unsettled]
            step = table.dtype.type
            while stride > 1:
                stride >>= 1
                probes = np.take(cdf, refined + step(stride - 1), mode="clip")
                refined += (probes < targets) * step(stride)
            index[unsettled] = refined
        return np.minimum(index, self.n_keys - 1, out=index)

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(
                f"rank must be in [1, {self.n_keys}], got {rank}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZipfDistribution(n_keys={self.n_keys}, alpha={self.alpha})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZipfDistribution):
            return NotImplemented
        return self.n_keys == other.n_keys and self.alpha == other.alpha

    def __hash__(self) -> int:
        return hash((self.n_keys, self.alpha))

    def __store_key__(self) -> dict[str, float]:
        """Canonical identity for artifact-store keys: the distribution
        is fully determined by ``(n_keys, alpha)``; the precomputed
        probability arrays carry no extra information."""
        return {"n_keys": self.n_keys, "alpha": self.alpha}
