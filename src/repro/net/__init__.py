"""Network substrate: peers, overlay topologies, churn and gateways.

These are the moving parts under both the unstructured overlay and the
DHTs: peer ids and the population's online set (:mod:`repro.net.node`),
Gnutella-like random graph topologies (:mod:`repro.net.topology`), the
churn process that drives peers on- and offline (:mod:`repro.net.churn`)
and the gateway caches of peers outside the DHT
(:mod:`repro.net.bootstrap`). Messages are not objects: every component
counts what it sends into a :class:`~repro.sim.metrics.MessageMetrics`,
by :class:`~repro.sim.metrics.MessageCategory`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.node": ("PeerId", "PeerPopulation"),
    "repro.net.topology": ("GnutellaTopology",),
    "repro.net.churn": ("ChurnConfig", "ChurnProcess"),
    "repro.net.bootstrap": ("GatewayCache",),
})
