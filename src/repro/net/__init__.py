"""Network substrate: peers, overlay topologies, messages, and churn.

These are the moving parts under both the unstructured overlay and the
DHTs: a population of peers with on/offline state (:mod:`repro.net.node`),
Gnutella-like random graph topologies (:mod:`repro.net.topology`), the
message taxonomy used for cost accounting (:mod:`repro.net.messages`), and
the churn process that drives peers on- and offline
(:mod:`repro.net.churn`).
"""

from repro.net.node import Peer, PeerId, PeerPopulation
from repro.net.topology import GnutellaTopology
from repro.net.messages import Message, MessageKind
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.bootstrap import GatewayCache

__all__ = [
    "Peer",
    "PeerId",
    "PeerPopulation",
    "GnutellaTopology",
    "Message",
    "MessageKind",
    "ChurnConfig",
    "ChurnProcess",
    "GatewayCache",
]
