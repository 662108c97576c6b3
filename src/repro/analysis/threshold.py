"""Indexing threshold and ideal index size (paper Eq. 1, 2, 5).

A key is worth indexing when its query frequency amortises the indexing
cost (Eq. 1):

    fQry_k * (cSUnstr - cSIndx) - cIndKey > 0

which yields the minimum frequency (Eq. 2):

    fMin = cIndKey / (cSUnstr - cSIndx)

``maxRank`` is then the highest Zipf rank whose probability of being
queried at least once per round (Eq. 4) still reaches ``fMin``, and
``pIndxd`` (Eq. 5) is the fraction of queries answerable from an index of
the ``maxRank`` hottest keys.

The definition is circular: ``cIndKey`` depends on ``numActivePeers``,
which depends on how many keys are indexed, which depends on ``fMin``.
Because ``probT(rank)`` falls with rank while ``fMin(maxRank)`` rises with
index size, the residual ``probT(m) - fMin(m)`` is monotone decreasing in
``m`` and has a unique sign change; :func:`solve_threshold` finds it by
bisection, on the process-wide Eq. 3 array
(:func:`~repro.analysis.zipf.rank_probabilities`) and Eq. 4
(:func:`~repro.analysis.zipf.prob_queried`), with no CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import prob_queried, rank_probabilities
from repro.obs import counted_cache

__all__ = ["f_min", "IndexThreshold", "solve_threshold"]


def f_min(params: ScenarioParameters, indexed_keys: float) -> float:
    """Minimum query frequency a key must have to be worth indexing (Eq. 2).

    Evaluated for a hypothetical index of ``indexed_keys`` keys (the index
    size fixes ``numActivePeers`` and hence all three costs). Returns
    ``inf`` when the index search is not cheaper than the unstructured
    search, in which case no key is ever worth indexing.
    """
    model = CostModel(params=params, indexed_keys=max(1.0, indexed_keys))
    advantage = model.search_advantage
    if advantage <= 0:
        return float("inf")
    return model.index_key / advantage


@dataclass(frozen=True)
class IndexThreshold:
    """Solution of the Eq. 2/Eq. 4 fixed point for one scenario.

    Attributes
    ----------
    max_rank:
        Number of keys worth indexing (``maxRank``). 0 means indexing never
        pays off; ``params.n_keys`` means everything is worth indexing.
    f_min:
        The frequency threshold (Eq. 2) evaluated at ``max_rank``.
    p_indexed:
        Fraction of queries the ideal partial index answers (Eq. 5).
    num_active_peers:
        Peers hosting the ideal partial index.
    cost_model:
        The :class:`CostModel` evaluated at ``max_rank`` (handy for
        downstream strategy costs).
    """

    params: ScenarioParameters
    max_rank: int
    f_min: float
    p_indexed: float
    num_active_peers: int
    cost_model: CostModel

    @property
    def index_fraction(self) -> float:
        """Indexed share of the key universe, ``maxRank / keys`` (Fig. 3)."""
        return self.max_rank / self.params.n_keys

    @property
    def key_ttl(self) -> float:
        """The paper's choice of expiration time, ``keyTtl = 1/fMin`` rounds.

        Infinite ``f_min`` (indexing never pays) maps to a TTL of 0 rounds,
        i.e. keys are evicted immediately.
        """
        if self.f_min == float("inf"):
            return 0.0
        if self.f_min <= 0:
            return float("inf")
        return 1.0 / self.f_min


def solve_threshold(params: ScenarioParameters) -> IndexThreshold:
    """Solve for ``maxRank``, ``fMin`` and ``pIndxd`` by bisection.

    The solution is a function of ``params`` (Table 1) alone and is
    cached per scenario (``cache.threshold.*`` counters), so every
    consumer of one scenario — ``PdhtConfig.from_scenario``,
    partialIdeal's ``StrategyPolicy`` (``strategy_setup``),
    ``SelectionModel``, ``evaluate_strategies``, ``sensitivity``, the
    figures — shares one bisection. Only the scalar
    :class:`IndexThreshold` is kept; the one n-key array the solve reads
    is the process-wide Eq. 3 cache.
    """
    return _solve(params)


@counted_cache("threshold", maxsize=256)
def _solve(params: ScenarioParameters) -> IndexThreshold:
    """The bisection behind :func:`solve_threshold`, once per scenario.

    Reads the cached Eq. 3 probabilities and nothing else of size
    ``n_keys``: each step evaluates Eq. 4 on one element
    (:func:`~repro.analysis.zipf.prob_queried`, which gives the vector
    form's value bit for bit), and Eq. 5 is the last entry of ``cumsum``
    over the ``maxRank`` head. ``add.accumulate`` is sequential, so that
    is ``cumsum(probs)[maxRank - 1]`` bit for bit, without a CDF of the
    whole universe.
    """
    probs = rank_probabilities(params.n_keys, params.alpha)
    rate = params.network_query_rate

    def residual(rank: int) -> float:
        """``probT(rank) - fMin(rank)``: positive while rank is worth indexing."""
        prob_t = float(prob_queried(probs[rank - 1], rate))
        return prob_t - f_min(params, float(rank))

    n = params.n_keys
    if residual(1) < 0:
        max_rank = 0
    elif residual(n) >= 0:
        max_rank = n
    else:
        # Invariant: residual(lo) >= 0 > residual(hi).
        lo, hi = 1, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if residual(mid) >= 0:
                lo = mid
            else:
                hi = mid
        max_rank = lo

    cost_model = CostModel(params=params, indexed_keys=float(max(max_rank, 1)))
    return IndexThreshold(
        params=params,
        max_rank=max_rank,
        f_min=f_min(params, float(max(max_rank, 1))),
        p_indexed=float(np.cumsum(probs[:max_rank])[-1]) if max_rank else 0.0,
        num_active_peers=params.active_peers_for(max_rank),
        cost_model=cost_model,
    )
