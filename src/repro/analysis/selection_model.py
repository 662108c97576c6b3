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

keyTtl appears only in the exponent, so ``log1p(-probT)`` is one n-key
array per scenario: :func:`selection_columns` evaluates each scenario's
keyTtl column from that one prefix plus one working buffer (two buffers
off the heap for all its columns), and a single :class:`SelectionModel`
fills one buffer in place. Both read the cached
Eq. 3 array (:func:`~repro.analysis.zipf.rank_probabilities`): no
distribution, no CDF, no per-rank table outlives the evaluation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import solve_threshold
from repro.analysis.zipf import rank_probabilities
from repro.errors import require_key_ttl
from repro.obs import counted_cache

__all__ = [
    "SelectionModel",
    "SelectionOutcome",
    "selection_columns",
    "selection_outcome",
    "selection_outcomes",
]


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


def _log_absence(probs: np.ndarray, rate: float, out: np.ndarray) -> np.ndarray:
    """``log1p(-probT)`` per rank, the keyTtl-independent prefix of
    Eq. 14/15, in the n-key buffer ``out``.

    ``probT`` of Eq. 4 is taken as ``-expm1(rate * log1p(-p))`` in place:
    the ufuncs of :func:`~repro.analysis.zipf.prob_queried`, so every
    element is bit for bit what that function returns for a positive
    rate.
    """
    buf = np.negative(probs, out=out)
    # probT can round to exactly 1.0 for the hottest ranks, where
    # log1p(-1) = -inf and the presence probability is correctly 1.
    with np.errstate(divide="ignore"):
        np.log1p(buf, out=buf)
        np.multiply(buf, rate, out=buf)
        np.expm1(buf, out=buf)  # -probT: negating twice is exact
        np.log1p(buf, out=buf)
    return buf


def _presence_sums(
    log_absence: np.ndarray, probs: np.ndarray, key_ttl: float, out: np.ndarray
) -> tuple[float, float]:
    """``(sum(presence), sum(presence * probs))`` at one ``key_ttl``,
    computed in ``out`` (which may be ``log_absence`` itself).

    A rank is present with probability ``1 - (1 - probT)^keyTtl``, taken
    stably as ``-expm1(keyTtl * log1p(-probT))``. A rank with
    ``probT = 0`` (no queries, or an underflow) is never present, for
    every ``keyTtl`` — at ``keyTtl = inf`` the product is ``inf * 0``.
    """
    if key_ttl == math.inf:
        np.less(log_absence, 0.0, out=out)  # present iff probT > 0
    else:
        np.multiply(log_absence, key_ttl, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
    index_size = float(out.sum())
    np.multiply(out, probs, out=out)
    return index_size, float(out.sum())


class SelectionModel:
    """Closed-form model of the TTL-based selection algorithm.

    Parameters
    ----------
    params:
        Scenario parameters (Table 1).
    key_ttl:
        Expiration time in rounds. When omitted, the paper's choice
        ``keyTtl = 1 / fMin`` is derived from :func:`solve_threshold`.
    """

    def __init__(
        self,
        params: ScenarioParameters,
        key_ttl: float | None = None,
    ) -> None:
        self.params = params
        probs = rank_probabilities(params.n_keys, params.alpha)
        if key_ttl is None:
            key_ttl = solve_threshold(params).key_ttl
        require_key_ttl(key_ttl)
        self.key_ttl = float(key_ttl)
        #: Expected number of keys resident in the index (Eq. 15) and the
        #: probability a random query is answered from it (Eq. 14).
        self.index_size = self.p_indexed = 0.0
        rate = params.network_query_rate
        # Eq. 4's zero-rate rule: probT is 0, not 0 * log1p(-1).
        if rate != 0 and self.key_ttl != 0:
            buf = _log_absence(probs, rate, np.empty_like(probs))
            self.index_size, self.p_indexed = _presence_sums(
                buf, probs, self.key_ttl, out=buf
            )

    @classmethod
    def _of(
        cls,
        params: ScenarioParameters,
        key_ttl: float,
        index_size: float,
        p_indexed: float,
    ) -> "SelectionModel":
        """The model whose Eq. 14/15 sums were taken elsewhere (by a
        keyTtl column)."""
        model = cls.__new__(cls)
        model.params, model.key_ttl = params, key_ttl
        model.index_size, model.p_indexed = index_size, p_indexed
        return model

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


def _off_heap(rows: int, like: np.ndarray) -> np.ndarray:
    """``rows`` uninitialised rows shaped and typed as ``like``, in an
    anonymous mapping of their own rather than on the malloc heap."""
    import mmap

    size = rows * like.nbytes
    return np.frombuffer(mmap.mmap(-1, size), dtype=like.dtype).reshape(rows, -1)


class _Scratch:
    """The two n-key buffers that every column of one
    :func:`selection_columns` call runs in, off the heap.

    glibc may serve an n-key transient from the top of its heap and keep
    those pages resident after the free, so whether a run's peak RSS
    carried the buffers depended on the heap's layout: a 1 MiB step in
    ``tools/rss_layout_check.py --workload sweep_pool``, where no later
    allocation of the calling process reuses them. A mapping of their own
    goes back to the system with the call, and one mapping for all the
    columns faults its pages in once.
    """

    def __init__(self) -> None:
        self.rows: Optional[np.ndarray] = None

    def pair(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two buffers of ``probs``' length and type."""
        n = probs.size
        if self.rows is None or self.rows.shape[1] < n:
            self.rows = _off_heap(2, probs)
        return self.rows[0, :n], self.rows[1, :n]


class _Column:
    """The keyTtl column of one scenario while :func:`selection_columns`
    evaluates it: the Eq. 14/15 prefix, computed at the column's first
    cache miss, and the one buffer every keyTtl's suffix runs in, both
    from the call's :class:`_Scratch`."""

    def __init__(self, params: ScenarioParameters, scratch: _Scratch) -> None:
        self.params = params
        self.scratch = scratch
        self.log_absence: Optional[np.ndarray] = None
        self.work: Optional[np.ndarray] = None

    def outcome(self, key_ttl: float) -> SelectionOutcome:
        """What ``SelectionModel(params, key_ttl).outcome()`` returns."""
        params = self.params
        rate = params.network_query_rate
        index_size = p_indexed = 0.0
        if rate != 0 and key_ttl != 0:
            probs = rank_probabilities(params.n_keys, params.alpha)
            if self.log_absence is None:
                self.log_absence, self.work = self.scratch.pair(probs)
                _log_absence(probs, rate, self.log_absence)
            index_size, p_indexed = _presence_sums(
                self.log_absence, probs, key_ttl, out=self.work
            )
        model = SelectionModel._of(params, key_ttl, index_size, p_indexed)
        return model.outcome()


#: The column :func:`selection_columns` has open in this thread, if any.
_open = threading.local()


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
    array and fills one n-key buffer that lives for the evaluation alone
    (inside :func:`selection_columns`, the column's two); it builds no
    distribution and no CDF. Callers that vary ``key_ttl`` continuously
    (``optimal``, ``sensitivity``) build :class:`SelectionModel` directly.
    """
    column = getattr(_open, "column", None)
    if column is not None and column.params is params:
        return column.outcome(float(key_ttl))
    return SelectionModel(params, key_ttl=key_ttl).outcome()


def selection_outcomes(
    params: ScenarioParameters, key_ttls: Iterable[float]
) -> list[SelectionOutcome]:
    """:func:`selection_outcome` of one scenario at each of ``key_ttls``
    (its keyTtl column; see :func:`selection_columns`)."""
    return selection_columns([(params, key_ttls)])[0]


def selection_columns(
    columns: Iterable[tuple[ScenarioParameters, Iterable[float]]],
) -> list[list[SelectionOutcome]]:
    """:func:`selection_outcome` of each ``(params, key_ttls)`` column at
    each of its keyTtls, column by column.

    The pairs go through the per-pair cache (and its counters) in order.
    A column's misses share the keyTtl-independent prefix
    ``log1p(-probT)``, computed once, and each runs its keyTtl's suffix
    in one working buffer with the ufuncs of :class:`SelectionModel`, so
    every outcome equals that model's bit for bit. The two buffers are
    one :class:`_Scratch` for all the columns, released on return.
    """
    columns = [(params, list(key_ttls)) for params, key_ttls in columns]
    for _, key_ttls in columns:
        for key_ttl in key_ttls:
            require_key_ttl(key_ttl)
    scratch = _Scratch()
    previous = getattr(_open, "column", None)
    try:
        outcomes = []
        for params, key_ttls in columns:
            _open.column = _Column(params, scratch)
            outcomes.append(
                [selection_outcome(params, key_ttl) for key_ttl in key_ttls]
            )
        return outcomes
    finally:
        _open.column = previous
