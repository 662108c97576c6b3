"""Replica groups.

Index entries are replicated with factor ``repl``; the replicas of a key
"maintain an unstructured replica subnetwork among each other"
(Section 3.3.2). :class:`repro.replication.replica_network.ReplicaNetwork`
implements that subnetwork. Under the Section 5 selection algorithm it is
*flooded at query time* (the ``repl * dup2`` term of Eq. 16); both engines
charge an update as Eq. 9's lookup plus one such flood.
"""

from repro.replication.replica_network import ReplicaNetwork

__all__ = ["ReplicaNetwork"]
