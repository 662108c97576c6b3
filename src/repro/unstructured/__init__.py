"""Unstructured (Gnutella-like) overlay: replication and random-walk search.

This is the ``cSUnstr`` side of the paper's trade-off. Content (news
articles with their metadata keys) is replicated at random peers with
factor ``repl`` (:mod:`repro.unstructured.replication`); queries are
answered by multiple random walks (:mod:`repro.unstructured.random_walk`,
the [LvCa02] algorithm the paper assumes instead of flooding).
"""

from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.replication import ContentReplicator, ReplicaPlacement
from repro.unstructured.random_walk import RandomWalkSearch, WalkResult

__all__ = [
    "UnstructuredOverlay",
    "ContentReplicator",
    "ReplicaPlacement",
    "RandomWalkSearch",
    "WalkResult",
]
