"""Total system cost of the three indexing strategies (paper Eq. 11-13).

All costs are network-wide messages per second for a given scenario:

* ``indexAll`` (Eq. 11) — maintain every key in the DHT, answer every query
  from the index.
* ``noIndex`` (Eq. 12) — maintain nothing, answer every query by broadcast
  search in the unstructured overlay.
* ``partial`` (Eq. 13) — *ideal* partial indexing: maintain only the
  ``maxRank`` keys worth indexing, assuming every peer magically knows
  whether a key is indexed (lower bound; Section 4). The realistic variant
  that drops this assumption is :mod:`repro.analysis.selection_model`.

:class:`StrategyPolicy` states the same systems as the facts both
simulation engines run them by — indexed ranks, insert TTL, preloaded
ranks, DHT size — and :func:`strategy_setup` is the one place a strategy
name becomes those facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import selection_outcome
from repro.analysis.threshold import IndexThreshold, solve_threshold
from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.pdht.config import PdhtConfig

__all__ = [
    "cost_index_all",
    "cost_no_index",
    "cost_partial_ideal",
    "StrategyCosts",
    "evaluate_strategies",
    "STRATEGY_NAMES",
    "StrategyPolicy",
    "selection_members",
    "strategy_setup",
]

#: The four systems of Fig. 1, in figure order.
STRATEGY_NAMES: tuple[str, ...] = (
    "noIndex", "indexAll", "partialIdeal", "partialSelection"
)


def cost_index_all(params: ScenarioParameters) -> float:
    """Total msg/s when all keys are indexed (Eq. 11).

        indexAll = keys * cIndKey + fQry * numPeers * cSIndx
    """
    model = CostModel.full_index(params)
    maintenance = params.n_keys * model.index_key
    queries = params.network_query_rate * model.search_index
    return maintenance + queries


def cost_no_index(params: ScenarioParameters) -> float:
    """Total msg/s when all queries are broadcast (Eq. 12).

        noIndex = fQry * numPeers * cSUnstr
    """
    model = CostModel(params=params, indexed_keys=0.0)
    return params.network_query_rate * model.search_unstructured


def cost_partial_ideal(
    params: ScenarioParameters, threshold: IndexThreshold | None = None
) -> float:
    """Total msg/s of ideal partial indexing (Eq. 13).

        partial = maxRank * cIndKey
                + pIndxd * fQry * numPeers * cSIndx
                + (1 - pIndxd) * fQry * numPeers * cSUnstr

    Pass a pre-solved ``threshold`` to avoid re-running the bisection.
    """
    if threshold is None:
        threshold = solve_threshold(params)
    model = threshold.cost_model
    rate = params.network_query_rate
    maintenance = threshold.max_rank * model.index_key
    hits = threshold.p_indexed * rate * model.search_index
    misses = (1.0 - threshold.p_indexed) * rate * model.search_unstructured
    return maintenance + hits + misses


@dataclass(frozen=True)
class StrategyCosts:
    """Eq. 11-13 evaluated side by side for one scenario (one Fig. 1 column)."""

    params: ScenarioParameters
    threshold: IndexThreshold
    index_all: float
    no_index: float
    partial: float

    @property
    def savings_vs_index_all(self) -> float:
        """Relative saving of partial indexing over indexAll (Fig. 2, solid)."""
        if self.index_all == 0:
            return 0.0
        return 1.0 - self.partial / self.index_all

    @property
    def savings_vs_no_index(self) -> float:
        """Relative saving of partial indexing over noIndex (Fig. 2, dashed)."""
        if self.no_index == 0:
            return 0.0
        return 1.0 - self.partial / self.no_index


def evaluate_strategies(params: ScenarioParameters) -> StrategyCosts:
    """Evaluate all three strategies for one scenario."""
    threshold = solve_threshold(params)
    return StrategyCosts(
        params=params,
        threshold=threshold,
        index_all=cost_index_all(params),
        no_index=cost_no_index(params),
        partial=cost_partial_ideal(params, threshold),
    )


@dataclass(frozen=True)
class StrategyPolicy:
    """How one indexing strategy runs, read alike by both engines.

    Attributes
    ----------
    key_ttl:
        TTL an index insert gets (Sec. 5.1's ``keyTtl``; ``inf`` for the
        static indexes, 0 for noIndex).
    index_ranks:
        Queries for ranks ``<= index_ranks`` try the index first; the
        rest go straight to broadcast search.
    preloaded_ranks:
        The top ranks indexed before the first query (``maxRank`` of
        Eq. 11-13), which are also what proactive updates (Eq. 9) refresh.
    num_members:
        ``numActivePeers``: how many peers join the DHT.
    adaptive:
        Whether the index follows the queries (the Section 5 selection
        algorithm) rather than staying as preloaded.
    """

    key_ttl: float
    index_ranks: int
    preloaded_ranks: int
    num_members: int
    adaptive: bool

    @property
    def runs_dht(self) -> bool:
        """Whether routing maintenance runs: an insert can live, or the
        TTL adapts. Only noIndex runs none (partialIdeal keeps its DHT
        even at ``maxRank`` 0)."""
        return self.adaptive or self.key_ttl > 0

    def updates_per_round(self, update_freq: float) -> float:
        """Expected proactive index updates per round (Eq. 9 traffic)."""
        return self.preloaded_ranks * update_freq


def selection_members(params: ScenarioParameters, key_ttl: float) -> int:
    """The selection algorithm's DHT size: peers for the Eq. 14 expected
    index at ``key_ttl``, sized for at least one key."""
    expected = selection_outcome(params, key_ttl).index_size
    return params.active_peers_for(max(expected, 1.0))


def strategy_setup(
    params: ScenarioParameters, config: "PdhtConfig", strategy: str
) -> StrategyPolicy:
    """The :class:`StrategyPolicy` of ``strategy`` on one scenario.

    The only mapping from a strategy name to behaviour: the event engine
    (:class:`~repro.pdht.strategies.SimulatedStrategy`), the kernel and
    the parallel runner's cost resolution all read the policy this
    returns. Rejects an unknown name.
    """
    n_keys = params.n_keys
    if strategy == "noIndex":  # a minimal DHT that never runs
        return StrategyPolicy(0.0, 0, 0, 2, adaptive=False)
    if strategy == "indexAll":
        return StrategyPolicy(
            float("inf"), n_keys, n_keys, params.active_peers_for(n_keys),
            adaptive=False,
        )
    if strategy == "partialIdeal":
        max_rank = solve_threshold(params).max_rank
        return StrategyPolicy(
            float("inf"), max_rank, max_rank,
            max(2, params.active_peers_for(max_rank)), adaptive=False,
        )
    if strategy == "partialSelection":
        return StrategyPolicy(
            config.key_ttl, n_keys, 0,
            selection_members(params, config.key_ttl), adaptive=True,
        )
    raise ParameterError(
        f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}"
    )
