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
  :class:`~repro.analysis.strategies.StrategyPolicy`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pdht.config": ("PdhtConfig",),
    "repro.pdht.ttl_cache": ("IndexRecord", "TtlKeyStore"),
    "repro.pdht.selection": ("SelectionPolicy", "SelectionStats"),
    "repro.pdht.node": ("PdhtNode",),
    "repro.pdht.network": ("PdhtNetwork", "QueryOutcome"),
    "repro.pdht.strategies": ("SimulatedStrategy", "StrategyReport"),
})
