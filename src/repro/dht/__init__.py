"""The structured overlay: P-Grid.

The paper's analysis targets "traditional DHTs" [Aber01, RaFr01, RoDr01,
StMo01] generically: all it consumes is an ``O(log n)`` lookup (Eq. 7) and
a ``log n``-sized routing table to maintain (Eq. 8). The PDHT runs on
:mod:`repro.dht.pgrid` — P-Grid's binary trie [Aber01], the system the
paper's own simulator was built on — behind
:class:`repro.dht.base.DistributedHashTable`, which holds the membership,
lookup and storage plane.

:mod:`repro.dht.maintenance` implements the probe-based routing-table
maintenance whose cost is the ``env`` constant of Eq. 8 [MaCa03].
"""

from repro.dht.base import DistributedHashTable, LookupResult
from repro.dht.keyspace import KeySpace
from repro.dht.pgrid import PGridDht
from repro.dht.maintenance import RoutingMaintenance

__all__ = [
    "DistributedHashTable",
    "LookupResult",
    "KeySpace",
    "PGridDht",
    "RoutingMaintenance",
]
