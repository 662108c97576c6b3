"""Analytical model of the decentralized selection algorithm (paper Eq. 14-17).

Section 5 drops the idealising assumption that peers know which keys are
indexed. Instead each peer:

1. searches the index first (cost ``cSIndx2``, Eq. 16 — the replica
   subnetwork must be flooded because TTL purging leaves replicas poorly
   synchronised);
2. on a miss, broadcasts in the unstructured network (``cSUnstr``) and
   inserts the resulting key into the index (another ``cSIndx2``);
3. keys expire after ``keyTtl`` rounds without a query; a query resets the
   expiration clock.

Under this policy a key at Zipf rank ``r`` is present in the index exactly
when it was queried at least once during the last ``keyTtl`` rounds, which
happens with probability ``1 - (1 - probT_r)^keyTtl``. Summing gives the
index hit probability (Eq. 14) and the expected index size (Eq. 15); the
total cost is Eq. 17. Proactive updates are no longer needed (a stale key
simply times out and is re-fetched), so maintenance reduces to ``cRtn``.

Both sums come out of one n-key buffer, filled in place from the cached
Eq. 3 array (:func:`~repro.analysis.zipf.rank_probabilities`): no
:class:`~repro.analysis.zipf.ZipfDistribution`, no CDF, no per-rank
table outlives the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import check_zipf, solve_threshold
from repro.analysis.zipf import ZipfDistribution, rank_probabilities
from repro.errors import ParameterError
from repro.obs import counted_cache

__all__ = ["SelectionModel", "SelectionOutcome", "selection_outcome"]


@dataclass(frozen=True)
class SelectionOutcome:
    """Eq. 14-17 evaluated for one scenario and one ``keyTtl`` (Fig. 4 column)."""

    params: ScenarioParameters
    key_ttl: float
    index_size: float
    p_indexed: float
    total_cost: float
    index_all: float
    no_index: float

    @property
    def savings_vs_index_all(self) -> float:
        """Fig. 4, solid line. May go negative at very high query rates."""
        if self.index_all == 0:
            return 0.0
        return 1.0 - self.total_cost / self.index_all

    @property
    def savings_vs_no_index(self) -> float:
        """Fig. 4, dashed line."""
        if self.no_index == 0:
            return 0.0
        return 1.0 - self.total_cost / self.no_index


def _presence_sums(
    probs: np.ndarray, rate: float, key_ttl: float
) -> tuple[float, float]:
    """``(sum(presence), sum(presence * probs))`` in one n-key buffer.

    A rank is present with probability ``1 - (1 - probT)^keyTtl``, taken
    stably as ``-expm1(keyTtl * log1p(-probT))`` with ``probT`` of Eq. 4
    as ``-expm1(rate * log1p(-p))``: the ufuncs and operand order of the
    vector form, so every element is bit for bit what
    ``ZipfDistribution.probs_queried`` would feed it. A rank with
    ``probT = 0`` (no queries, or an underflow) is never present, for
    every ``keyTtl`` — at ``keyTtl = inf`` the product is ``inf * 0``.
    """
    if rate == 0 or key_ttl == 0:
        # probs_queried's zero-rate rule: probT is 0, not 0 * log1p(-1).
        return 0.0, 0.0
    buf = np.negative(probs)
    # probT can round to exactly 1.0 for the hottest ranks, where
    # log1p(-1) = -inf and the presence probability is correctly 1.
    with np.errstate(divide="ignore"):
        np.log1p(buf, out=buf)
        np.multiply(buf, rate, out=buf)
        np.expm1(buf, out=buf)  # -probT: negating twice is exact
        np.log1p(buf, out=buf)
    if key_ttl == math.inf:
        np.less(buf, 0.0, out=buf)  # present iff probT > 0
    else:
        np.multiply(buf, key_ttl, out=buf)
        np.expm1(buf, out=buf)
        np.negative(buf, out=buf)
    index_size = float(buf.sum())
    np.multiply(buf, probs, out=buf)
    return index_size, float(buf.sum())


class SelectionModel:
    """Closed-form model of the TTL-based selection algorithm.

    Parameters
    ----------
    params:
        Scenario parameters (Table 1).
    key_ttl:
        Expiration time in rounds. When omitted, the paper's choice
        ``keyTtl = 1 / fMin`` is derived from :func:`solve_threshold`.
    zipf:
        Optional query distribution of ``params`` (its ``n_keys`` and
        ``alpha``, else :class:`ParameterError`). Only its probabilities
        are read, and they are the process-wide Eq. 3 array either way.
    """

    def __init__(
        self,
        params: ScenarioParameters,
        key_ttl: float | None = None,
        zipf: ZipfDistribution | None = None,
    ) -> None:
        self.params = params
        if zipf is None:
            probs = rank_probabilities(params.n_keys, params.alpha)
        else:
            check_zipf(params, zipf)
            probs = zipf.probs()
        if key_ttl is None:
            key_ttl = solve_threshold(params).key_ttl
        if key_ttl < 0:
            raise ParameterError(f"key_ttl must be >= 0, got {key_ttl}")
        self.key_ttl = float(key_ttl)
        #: Expected number of keys resident in the index (Eq. 15) and the
        #: probability a random query is answered from it (Eq. 14).
        self.index_size, self.p_indexed = _presence_sums(
            probs, params.network_query_rate, self.key_ttl
        )

    # ------------------------------------------------------------------
    # Eq. 17
    # ------------------------------------------------------------------
    @property
    def cost_model(self) -> CostModel:
        """Costs evaluated at the expected index size of Eq. 15."""
        return CostModel(params=self.params, indexed_keys=self.index_size)

    def total_cost(self) -> float:
        """Total msg/s of the selection algorithm (Eq. 17).

            partial = indexSize * cRtn
                    + pIndxd * fQry * numPeers * cSIndx2
                    + (1 - pIndxd) * fQry * numPeers
                      * (cSIndx2 + cSUnstr + cSIndx2)

        The miss path pays the failed index search, the broadcast search,
        and the re-insertion into the index.
        """
        model = self.cost_model
        rate = self.params.network_query_rate
        maintenance = self.index_size * model.routing_maintenance
        hit_cost = self.p_indexed * rate * model.search_index_with_replicas
        miss_per_query = (
            2.0 * model.search_index_with_replicas + model.search_unstructured
        )
        miss_cost = (1.0 - self.p_indexed) * rate * miss_per_query
        return maintenance + hit_cost + miss_cost

    def outcome(self) -> SelectionOutcome:
        """Bundle Eq. 14-17 with the Eq. 11/12 baselines for reporting."""
        # Imported here to avoid a circular import at module load time.
        from repro.analysis.strategies import cost_index_all, cost_no_index

        return SelectionOutcome(
            params=self.params,
            key_ttl=self.key_ttl,
            index_size=self.index_size,
            p_indexed=self.p_indexed,
            total_cost=self.total_cost(),
            index_all=cost_index_all(self.params),
            no_index=cost_no_index(self.params),
        )


@counted_cache("selection", maxsize=256)
def selection_outcome(
    params: ScenarioParameters, key_ttl: float
) -> SelectionOutcome:
    """Eq. 14-17 of one scenario at one ``keyTtl``, solved once per pair.

    The planning layers that need one number of the model each — the
    expected index size that sizes the selection DHT
    (:func:`~repro.analysis.strategies.selection_members`, read by the
    strategy policy, ``PerOpCosts.analytical`` and ``PdhtNetwork``), the
    Eq. 17 prediction a sweep cell reports — share one evaluation
    (``cache.selection.*`` counters). Only the scalar
    :class:`SelectionOutcome` is kept. A miss reads the cached Eq. 3
    array and fills one n-key buffer that lives for the evaluation alone;
    it builds no :class:`ZipfDistribution` and no CDF. Callers that hold
    a :class:`ZipfDistribution` and vary ``key_ttl`` continuously
    (``optimal``, ``sensitivity``) build :class:`SelectionModel` directly.
    """
    return SelectionModel(params, key_ttl=key_ttl).outcome()
