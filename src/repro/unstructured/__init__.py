"""Unstructured (Gnutella-like) overlay: replication and random-walk search.

This is the ``cSUnstr`` side of the paper's trade-off. Content (news
articles with their metadata keys) is replicated at random peers with
factor ``repl`` (:mod:`repro.unstructured.replication`); queries are
answered by multiple random walks (:mod:`repro.unstructured.random_walk`,
the [LvCa02] algorithm the paper assumes instead of flooding).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.unstructured.overlay": ("UnstructuredOverlay",),
    "repro.unstructured.replication": ("ContentReplicator",),
    "repro.unstructured.random_walk": ("RandomWalkSearch", "WalkResult"),
})
