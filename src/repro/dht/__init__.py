"""The structured overlay: P-Grid.

The paper's analysis targets "traditional DHTs" [Aber01, RaFr01, RoDr01,
StMo01] generically: all it consumes is an ``O(log n)`` lookup (Eq. 7) and
a ``log n``-sized routing table to maintain (Eq. 8). The PDHT runs on
:class:`repro.dht.pgrid.PGridDht` — P-Grid's binary trie [Aber01], the
system the paper's own simulator was built on — which holds the
membership and does the lookups. The DHT stores nothing: the index lives
in each replica group's :class:`~repro.pdht.ttl_cache.ReplicaGroupIndex`,
which holds its members' TTL key stores once.

:mod:`repro.dht.maintenance` implements the probe-based routing-table
maintenance whose cost is the ``env`` constant of Eq. 8 [MaCa03].
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dht.pgrid": ("LookupResult", "PGridDht"),
    "repro.dht.keyspace": ("KeySpace",),
    "repro.dht.maintenance": ("RoutingMaintenance",),
})
