"""The query-adaptive partial DHT (PDHT) — the paper's core contribution.

A PDHT answers every query in two stages: it first searches the (partial)
index; on a miss it broadcasts in the unstructured overlay and *inserts
the answer into the index* with an expiration time ``keyTtl``. Queried
keys get their expiration reset, so frequently-queried keys stay indexed
while unpopular ones time out — a fully decentralized approximation of the
"index only keys with query frequency above fMin" rule of Section 2.

Layout:

* :mod:`repro.pdht.config` — tuning knobs (``keyTtl``, replication, ...);
* :mod:`repro.pdht.ttl_cache` — the TTL index of a replica group: each
  member's TTL key store, held once per group;
* :mod:`repro.pdht.network` — the wired-up network (DHT + unstructured
  overlay + replica groups + churn + maintenance) and its query path,
  whose outcome says whether it hit the index or inserted into it;
* :mod:`repro.pdht.strategies` — runs indexAll / noIndex / partial-ideal
  / partial-selection on the event engine, each by its
  :class:`~repro.analysis.strategies.StrategyPolicy`, and tallies the
  selection algorithm's overhead sources (insertions, reinsertions, cold
  misses, unresolved queries) into its report.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pdht.config": ("PdhtConfig",),
    "repro.pdht.ttl_cache": ("IndexRecord", "ReplicaGroupIndex"),
    "repro.pdht.network": ("PdhtNetwork", "QueryOutcome"),
    "repro.pdht.strategies": ("SimulatedStrategy", "StrategyReport"),
})
