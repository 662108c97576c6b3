"""Exact optimisers for the quantities the paper picks heuristically.

The paper chooses ``maxRank`` by comparing probT against fMin (Eq. 2/4)
and ``keyTtl`` as ``1/fMin`` — both closed-form heuristics. Section 6 is
explicit that the scheme "does not make the system theoretically optimal".
This module computes the theoretical optima so the gap can be measured:

* :func:`optimal_max_rank` — the index size minimising the ideal-partial
  cost (Eq. 13) exactly, by evaluating the cost at every cut rank
  (vectorised, O(keys));
* :func:`optimal_key_ttl` — the TTL minimising the selection-algorithm
  cost (Eq. 17), by golden-section search over log-TTL (the cost is
  unimodal in practice: too-small TTLs thrash, too-large TTLs over-index).

``runner optimal`` reports the heuristic-vs-optimal gap across the
frequency sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.costs import c_search_unstructured
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import SelectionModel
from repro.analysis.zipf import rank_probabilities

__all__ = ["OptimalPartialIndex", "optimal_max_rank", "optimal_key_ttl"]

#: The keyTtl range :func:`optimal_key_ttl` searches, in rounds.
TTL_BOUNDS = (1.0, 1e7)
#: The ``log(ttl)`` interval width at which that search stops.
TTL_TOLERANCE = 1e-3


@dataclass(frozen=True)
class OptimalPartialIndex:
    """The exact Eq. 13 optimum over all cut ranks."""

    params: ScenarioParameters
    max_rank: int
    cost: float
    p_indexed: float


def _partial_costs_all_ranks(
    params: ScenarioParameters,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 13 at every cut rank m = 0..keys (vectorised), with the Eq. 5
    head mass ``pIndxd`` of each cut: ``(costs, head)``."""
    n = params.n_keys
    rate = params.network_query_rate
    c_unstr = c_search_unstructured(params.num_peers, params.replication, params.dup)

    ranks = np.arange(0, n + 1, dtype=np.float64)
    # numActivePeers(m) = clip(ceil(m*repl/stor), 2, numPeers) for m >= 1.
    nap = np.ceil(ranks * params.replication / params.storage_per_peer)
    nap = np.clip(nap, 2, params.num_peers)
    nap[0] = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        log_nap = np.where(nap > 1, np.log2(np.maximum(nap, 2)), 0.0)
    c_sindx = 0.5 * log_nap
    c_sindx[0] = 0.0

    # cIndKey(m) per key: cRtn + cUpd at index size m.
    with np.errstate(divide="ignore", invalid="ignore"):
        c_rtn = np.where(ranks > 0, params.env * log_nap * nap / ranks, 0.0)
    c_upd = (c_sindx + params.replication * params.dup2) * params.update_freq
    c_upd[0] = 0.0
    c_indkey = c_rtn + c_upd

    probs = rank_probabilities(params.n_keys, params.alpha)
    head = np.concatenate(([0.0], np.cumsum(probs)))
    maintenance = ranks * c_indkey
    hits = head * rate * c_sindx
    misses = (1.0 - head) * rate * c_unstr
    return maintenance + hits + misses, head


def optimal_max_rank(params: ScenarioParameters) -> OptimalPartialIndex:
    """The cut rank minimising Eq. 13 exactly.

    This is the paper's "theoretically optimal" partial index the
    heuristic approximates; it considers every cut rank including 0 (pure
    broadcast) and keys (full index), so it never loses to either
    baseline.
    """
    costs, head = _partial_costs_all_ranks(params)
    best = int(np.argmin(costs))
    return OptimalPartialIndex(
        params=params,
        max_rank=best,
        cost=float(costs[best]),
        p_indexed=float(head[best]),
    )


def optimal_key_ttl(params: ScenarioParameters) -> tuple[float, float]:
    """The TTL minimising the Eq. 17 selection cost.

    Golden-section search over ``log(ttl)`` within :data:`TTL_BOUNDS`,
    down to a ``log(ttl)`` interval of :data:`TTL_TOLERANCE`; returns
    ``(ttl, cost)``.
    Eq. 17 is continuous and unimodal in the TTL for Zipf workloads (the
    miss penalty falls and the maintenance cost rises monotonically with
    TTL), which golden-section requires.
    """
    def cost_at(log_ttl: float) -> float:
        return SelectionModel(params, key_ttl=math.exp(log_ttl)).total_cost()

    a, b = math.log(TTL_BOUNDS[0]), math.log(TTL_BOUNDS[1])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = cost_at(c), cost_at(d)
    while b - a > TTL_TOLERANCE:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = cost_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = cost_at(d)
    log_best = (a + b) / 2.0
    return math.exp(log_best), cost_at(log_best)
