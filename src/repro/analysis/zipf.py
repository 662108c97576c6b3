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

Eq. 3 is planning input. :func:`rank_probabilities` caches one array
per ``(n_keys, alpha)`` for as long as planning may read it, and Eq. 4
has one implementation, :func:`prob_queried`. The closed-form model reads
both directly and builds no distribution.
:func:`~repro.fastsim.parallel.run_many` drops the cached arrays once its
costs are resolved when it runs the kernels in its own process, so no
kernel runs beside them.

A :class:`ZipfDistribution` only samples. It holds the CDF its draws
invert, not Eq. 3 (a pickled or staged distribution carries one table,
not two), and every distribution of one ``(n_keys, alpha)`` shares one
read-only CDF: a one-entry memo per process (:func:`_cdf`). The memo sums
a new CDF from the pair's Eq. 3 array while one is still alive, and
otherwise from a fresh evaluation that it sums in place and does not
cache. ``zipf.eq3.evaluations`` and ``zipf.cdf.builds`` count both.

A large draw inverts its uniforms through a guide table (Chen & Asau
1974), one per ``(n_keys, alpha)`` per process (:func:`build_guide`).
Its entry for a bucket of uniforms is the answer itself when no CDF
entry falls inside the bucket, which under a skewed law is most of
them, and otherwise the bitwise complement of the bucket's lower bound,
a negative number. One gather then settles most uniforms, and only the
negative entries go on to a short binary descent over the CDF.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.errors import ParameterError, require_count, require_finite
from repro.obs import counted_cache

__all__ = [
    "ZipfDistribution", "build_guide", "prob_queried", "rank_probabilities",
]

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

#: CDF entries the guide build counts per pass. Its ~6 temporaries of
#: this length (~400 KiB) stay below a draw chunk's: a table built
#: inside a draw adds its build's transient to a sweep's peak RSS.
_COUNT_CHUNK = DRAW_CHUNK >> 2

#: Cap on the guide table's bucket count: int32 entries, so 1 MiB — small
#: enough to stay in L2 next to a chunk's temporaries, and a few ms to
#: build whatever the key count.
_GUIDE_MAX_BUCKETS = 1 << 18


def _eq3(n_keys: int, alpha: float) -> np.ndarray:
    """Eq. 3 for ranks ``1..n_keys``, evaluated now, into a new array."""
    obs.count("zipf.eq3.evaluations")
    probs = np.arange(1, n_keys + 1, dtype=np.float64) ** (-alpha)
    probs /= float(probs.sum())
    return probs


#: The Eq. 3 arrays :func:`rank_probabilities` made that something still
#: holds (its cache or a caller), by pair. :func:`_cdf` reads one from
#: here, so a CDF summed after the cache let go never re-caches Eq. 3.
_alive: weakref.WeakValueDictionary[tuple[int, float], np.ndarray] = (
    weakref.WeakValueDictionary()
)


@counted_cache("zipf_probs", maxsize=128)
def rank_probabilities(n_keys: int, alpha: float) -> np.ndarray:
    """Eq. 3 for ranks ``1..n_keys``: the one copy per ``(n_keys, alpha)``.

    Read-only, read by the closed-form planning
    (:mod:`~repro.analysis.selection_model`,
    :mod:`~repro.analysis.threshold`) without building a distribution or
    its CDF. Planning input only: the cache lives until
    :func:`~repro.fastsim.parallel.run_many` clears it after cost
    resolution, before any kernel of its own process allocates (a pool's
    parent keeps it, and its forked workers sum their CDFs from it); the
    next planning call evaluates it again. Arguments are not validated:
    callers have (``ScenarioParameters``).
    """
    probs = _eq3(n_keys, alpha)
    probs.flags.writeable = False
    _alive[n_keys, alpha] = probs
    return probs


#: :func:`_cdf`'s one entry: ``[((n_keys, alpha), cdf)]``, or empty.
_last_cdf: list[tuple[tuple[int, float], np.ndarray]] = []


def _cdf(n_keys: int, alpha: float) -> np.ndarray:
    """The read-only CDF of ``(n_keys, alpha)`` that every distribution of
    the pair shares, from a one-entry memo per process.

    A miss first drops the entry it replaces, then sums the new CDF
    (``zipf.cdf.builds``): from the pair's Eq. 3 array while one is
    alive, else from a fresh evaluation, in place, which it does not
    cache. Either way the CDF is ``np.cumsum(rank_probabilities(n_keys,
    alpha))`` bit for bit: the running sum is sequential.
    """
    key = (n_keys, alpha)
    if _last_cdf and _last_cdf[0][0] == key:
        return _last_cdf[0][1]
    _last_cdf.clear()
    obs.count("zipf.cdf.builds")
    probs = _alive.get(key)
    if probs is None:
        cdf = _eq3(n_keys, alpha)
        np.cumsum(cdf, out=cdf)
    else:
        cdf = np.cumsum(probs)
    cdf.flags.writeable = False
    _last_cdf.append((key, cdf))
    return cdf


@counted_cache("zipf_guide", maxsize=8)
def _guide_slot(n_keys: int, alpha: float) -> list:
    """Process-wide home of the guide table of ``(n_keys, alpha)``.

    Starts empty and is filled once, from the CDF of the distribution
    that asks first, so nothing O(n_keys) is rebuilt and the cache never
    keeps a CDF alive. :func:`~repro.fastsim.parallel.run_many`, when it
    runs the kernels in its own process, fills the slot of every pair its
    default-workload jobs will draw in bulk (:func:`build_guide`) before
    the first kernel allocates: a table built inside a draw lands among
    that kernel's arrays, in whichever heap hole fits it. Any other large
    draw (:meth:`ZipfDistribution.draw_into`), a pool worker's included,
    fills it the first time it needs it. A miss is therefore a table
    build. The table hangs off no instance: it is neither pickled nor
    staged into shared memory with a workload.
    """
    return []


def build_guide(n_keys: int, alpha: float) -> None:
    """Build the guide table of ``(n_keys, alpha)`` in this process now,
    unless it has it already (see :func:`_guide_slot`)."""
    ZipfDistribution(n_keys, alpha)._guide()


def _build_guide(cdf: np.ndarray) -> tuple[int, np.ndarray, int]:
    """Guide table (Chen & Asau 1974) over a CDF: ``(buckets, table, stride)``.

    The uniforms ``u`` of bucket ``b = floor(u * buckets)`` invert into
    ``[lower, upper]``, the ``searchsorted(cdf, edge, "left")`` of the
    bucket's edges ``b / buckets`` and ``(b + 1) / buckets``.
    ``table[b]`` is ``lower`` where the two are equal (a *settled*
    bucket: every uniform in it inverts to ``lower``) and ``~lower``,
    which is negative, where they are not. ``stride`` is the power of
    two above the widest interval, i.e. where a binary descent from
    ``lower`` has to start to cover it. ``buckets`` is a power of two —
    ``u * buckets`` and ``b / buckets`` are then exact in binary floating
    point, which is what makes the bucket bounds hold for every ``u``
    rather than for most — sized from the key count and capped so the
    table is never bigger than the CDF it indexes, nor than 1 MiB.

    The bounds are counted, not searched: an entry ``x`` is below edge
    ``b`` iff ``floor(x * buckets) < b`` (the product is exact), so the
    bound of edge ``b`` is the number of entries whose bucket is below
    ``b``, a running count over the buckets. The CDF is sorted, so a
    chunk's buckets come in runs, one count each.

    A settled answer is never ``cdf.size``: that would need an edge
    ``b / buckets <= 1 - 1 / buckets`` above ``cdf[-1]``, whose rounding
    error is at most ``cdf.size`` ulp of 1, and ``1 / buckets`` is more
    than that for any CDF below 10^10 entries. Only the descent can run
    past the last key, so only it needs the clamp.
    """
    buckets = min(1 << (cdf.size.bit_length() - 1), _GUIDE_MAX_BUCKETS)
    # The descent probes at most two widths past a bound: int32 holds it
    # for any CDF that fits in memory, at half the bandwidth.
    bounds = np.zeros(
        buckets + 1, dtype=np.int32 if 4 * cdf.size < 2**31 else np.int64
    )
    # Both passes go a chunk at a time: the full edge vector, an int64
    # table and its differences were a 6 MiB transient on top of a built
    # kernel, enough to move a sweep's peak RSS by themselves.
    for lo in range(0, len(cdf), _COUNT_CHUNK):
        first = (cdf[lo : lo + _COUNT_CHUNK] * buckets).astype(np.intp)
        # An entry of 1.0 or more is below no edge.
        first = first[: np.searchsorted(first, buckets)]
        runs = np.flatnonzero(np.diff(first, prepend=-1))
        bounds[first[runs] + 1] += np.diff(runs, append=len(first))
    np.cumsum(bounds, out=bounds)
    # Encoded in place, a chunk of buckets at a time; a chunk's upper
    # bounds run one edge past it, the seam with the next chunk, which
    # is still a bound when the chunk is encoded.
    widest = 0
    for lo in range(0, buckets, DRAW_CHUNK):
        hi = min(lo + DRAW_CHUNK, buckets)
        lower = bounds[lo:hi]
        gaps = np.subtract(bounds[lo + 1 : hi + 1], lower)
        widest = int(gaps.max(initial=widest))
        np.invert(lower, out=lower, where=gaps > 0)
    table = bounds[:buckets]
    table.flags.writeable = False  # shared by every instance in the process
    return buckets, table, 1 << widest.bit_length()


def prob_queried(probs, queries_per_round: float):
    """Eq. 4 on one Eq. 3 probability or a vector of them.

    ``queries_per_round`` is ``numPeers * fQry``, possibly fractional.
    ``1 - (1 - p)^n`` is taken as ``-expm1(n * log1p(-p))`` with numpy's
    ufuncs, so one element gets the vector's value bit for bit (libm's
    ``math.log1p`` does not on every CPU, and one ulp can move
    ``maxRank``). A zero rate gives zeros of the input's shape without
    that pass; ``p = 1`` gives 1 (``log1p(-1) = -inf``, warning hidden).
    """
    require_finite("queries_per_round", queries_per_round, 0.0)
    if queries_per_round == 0:
        return np.zeros_like(probs)[()]
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
        # As ScenarioParameters checks them: a NaN alpha would draw rank
        # 1 every time, and n_keys=2.5 would silently be 2.
        require_count("n_keys", n_keys, 1)
        require_finite("alpha", alpha, 0.0)
        self.n_keys = int(n_keys)
        self.alpha = float(alpha)
        self._cumulative = _cdf(self.n_keys, self.alpha)

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
        ranks: np.ndarray | None,
        keys: np.ndarray | None = None,
        rank_to_key: np.ndarray | None = None,
    ) -> None:
        """Fill ``ranks`` with i.i.d. query ranks (1-based), in place.

        With ``keys``, the same pass also writes each query's key index:
        ``keys[i] = rank_to_key[ranks[i] - 1]``, or ``ranks[i] - 1``
        without ``rank_to_key`` (the identity mapping, a copy rather than
        a gather). ``ranks`` is optional when ``keys`` is given: a caller
        that reads keys only draws the same keys without a rank buffer.
        Works through the buffers :data:`DRAW_CHUNK` uniforms at a time;
        the ranks and the generator's state afterwards are those of
        ``searchsorted(cdf, rng.random(size)) + 1``.
        """
        size = (keys if ranks is None else ranks).size
        guide = self._guide() if size >= GUIDE_MIN_DRAW else None
        for lo in range(0, size, DRAW_CHUNK):
            hi = min(lo + DRAW_CHUNK, size)
            index = self._invert(rng.random(hi - lo), guide)
            if ranks is not None:
                np.add(index, 1, out=ranks[lo:hi])
            if keys is None:
                continue
            if rank_to_key is None:
                keys[lo:hi] = index
            else:
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
        Searched through ``guide`` when the caller has one; the uniforms
        it leaves to the descent count as ``workload.draw.refined``.
        """
        cdf = self._cumulative
        last = self.n_keys - 1
        if guide is None:
            index = np.searchsorted(cdf, uniforms)
            return np.minimum(index, last, out=index)
        buckets, table, stride = guide
        index = table[(uniforms * buckets).astype(np.intp)]
        # A settled bucket's entry is the answer already. For the rest, a
        # binary descent from the lower bound (the entry's complement):
        # take each stride whose landing entry is still below u. Reads
        # past the end clip to the last entry, which is either >= u (not
        # taken, correctly) or below it: the top sliver, clamped
        # afterwards — the only answers that can pass the last key.
        unsettled = np.flatnonzero(index < 0)
        obs.count("workload.draw.refined", unsettled.size)
        targets = uniforms[unsettled]
        refined = np.invert(index[unsettled])
        step = table.dtype.type
        while stride > 1:
            stride >>= 1
            probes = np.take(cdf, refined + step(stride - 1), mode="clip")
            refined += (probes < targets) * step(stride)
        index[unsettled] = np.minimum(refined, last, out=refined)
        return index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZipfDistribution(n_keys={self.n_keys}, alpha={self.alpha})"

    def __store_key__(self) -> dict[str, float]:
        """Canonical identity for artifact-store keys: the distribution
        is fully determined by ``(n_keys, alpha)``; the precomputed CDF
        carries no extra information."""
        return {"n_keys": self.n_keys, "alpha": self.alpha}
