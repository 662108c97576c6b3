"""The query-adaptive partial DHT (PDHT) — the paper's core contribution.

A PDHT answers every query in two stages: it first searches the (partial)
index; on a miss it broadcasts in the unstructured overlay and *inserts
the answer into the index* with an expiration time ``keyTtl``. Queried
keys get their expiration reset, so frequently-queried keys stay indexed
while unpopular ones time out — a fully decentralized approximation of the
"index only keys with query frequency above fMin" rule of Section 2.

Layout:

* :mod:`repro.pdht.config` — tuning knobs (``keyTtl``, replication, ...);
* :mod:`repro.pdht.ttl_cache` — the per-peer TTL key store;
* :mod:`repro.pdht.selection` — the eviction/insertion policy and stats;
* :mod:`repro.pdht.node` — one PDHT peer;
* :mod:`repro.pdht.network` — the wired-up network (DHT + unstructured
  overlay + replica groups + churn + maintenance);
* :mod:`repro.pdht.strategies` — runs indexAll / noIndex / partial-ideal
  / partial-selection on the event engine, each by its
  :class:`~repro.analysis.strategies.StrategyPolicy`;
* :mod:`repro.pdht.adaptive_ttl` — self-tuning ``keyTtl`` (the paper's
  declared future work, implemented here as an extension).
"""

from repro.pdht.config import PdhtConfig
from repro.pdht.ttl_cache import IndexRecord, TtlKeyStore
from repro.pdht.selection import SelectionPolicy, SelectionStats
from repro.pdht.node import PdhtNode
from repro.pdht.network import PdhtNetwork, QueryOutcome
from repro.pdht.adaptive_ttl import AdaptiveTtlController, CostEstimates
from repro.pdht.strategies import SimulatedStrategy, StrategyReport

__all__ = [
    "PdhtConfig",
    "IndexRecord",
    "TtlKeyStore",
    "SelectionPolicy",
    "SelectionStats",
    "PdhtNode",
    "PdhtNetwork",
    "QueryOutcome",
    "AdaptiveTtlController",
    "CostEstimates",
    "SimulatedStrategy",
    "StrategyReport",
]
