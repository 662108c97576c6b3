"""Network substrate: peers, overlay topologies, messages, and churn.

These are the moving parts under both the unstructured overlay and the
DHTs: peer ids and the population's online set (:mod:`repro.net.node`),
Gnutella-like random graph topologies (:mod:`repro.net.topology`), the
message taxonomy used for cost accounting (:mod:`repro.net.messages`), and
the churn process that drives peers on- and offline
(:mod:`repro.net.churn`).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.node": ("PeerId", "PeerPopulation"),
    "repro.net.topology": ("GnutellaTopology",),
    "repro.net.messages": ("Message", "MessageKind"),
    "repro.net.churn": ("ChurnConfig", "ChurnProcess"),
    "repro.net.bootstrap": ("GatewayCache",),
})
