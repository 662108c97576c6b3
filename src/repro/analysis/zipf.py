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
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.obs import counted_cache

__all__ = ["ZipfDistribution", "truncated_zeta"]


@counted_cache("zipf_weights", maxsize=128)
def _rank_weights(n_keys: int, alpha: float) -> np.ndarray:
    """Unnormalised Zipf weights ``rank^-alpha`` for ranks 1..n_keys."""
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    return ranks ** (-alpha)


def truncated_zeta(n_keys: int, alpha: float) -> float:
    """Return the truncated zeta normaliser ``sum_{x=1}^{n_keys} x^-alpha``.

    This is the denominator of Eq. 3. Unlike the Riemann zeta function it is
    finite for every ``alpha`` (including ``alpha <= 1``) because the sum is
    truncated at ``n_keys``.
    """
    if n_keys < 1:
        raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
    return float(_rank_weights(n_keys, alpha).sum())


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
        weights = _rank_weights(self.n_keys, self.alpha)
        self._normaliser = float(weights.sum())
        self._probs = weights / self._normaliser
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

    def rank_of_quantile(self, quantile: float) -> int:
        """Smallest rank whose cumulative probability reaches ``quantile``."""
        if not 0.0 <= quantile <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {quantile}")
        if quantile == 0.0:
            return 0
        return int(np.searchsorted(self._cumulative, quantile) + 1)

    def sample_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` query ranks (1-based) i.i.d. from the distribution."""
        if size < 0:
            raise ParameterError(f"size must be >= 0, got {size}")
        uniforms = rng.random(size)
        return np.searchsorted(self._cumulative, uniforms) + 1

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
