"""Message-cost models of the paper (Eq. 6-10 and Eq. 16).

As is standard in P2P work, the paper's cost unit is the *message*; storage
and processing are not counted. Every function here returns either messages
per operation (``[msg]``) or messages per key per round (``[msg/s]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError

__all__ = [
    "c_search_unstructured",
    "c_search_index",
    "c_search_index_with_replicas",
    "c_routing_maintenance",
    "c_update",
    "CostModel",
]


def c_search_unstructured(
    num_peers: int, replication: int, dup: float
) -> float:
    """Cost of searching the unstructured network, ``cSUnstr`` (Eq. 6).

    With random replication factor ``repl``, a random-walk search visits on
    average ``numPeers / repl`` peers before hitting a replica; network
    connectivity makes some peers see the same query more than once, which
    the duplication factor ``dup`` accounts for:

        cSUnstr = numPeers / repl * dup   [msg]
    """
    if num_peers < 1:
        raise ParameterError(f"num_peers must be >= 1, got {num_peers}")
    if replication < 1:
        raise ParameterError(f"replication must be >= 1, got {replication}")
    if dup < 1.0:
        raise ParameterError(f"dup must be >= 1, got {dup}")
    return num_peers / replication * dup


def c_search_index(num_active_peers: int) -> float:
    """Cost of one DHT lookup, ``cSIndx`` (Eq. 7).

    In a binary key space a lookup resolves one bit per hop and on average
    half the bits are already shared with the target:

        cSIndx = 1/2 * log2(numActivePeers)   [msg]

    An empty index (``num_active_peers == 0``) costs nothing to search by
    convention; a single peer answers its own lookups for free.
    """
    if num_active_peers < 0:
        raise ParameterError(
            f"num_active_peers must be >= 0, got {num_active_peers}"
        )
    if num_active_peers <= 1:
        return 0.0
    return 0.5 * math.log2(num_active_peers)


def c_search_index_with_replicas(
    num_active_peers: int, replication: int, dup2: float
) -> float:
    """Index search cost under the selection algorithm, ``cSIndx2`` (Eq. 16).

    Purging timed-out keys leaves replicas poorly synchronised, so a peer
    that cannot answer a query floods it through the unstructured replica
    subnetwork; the index search cost grows by that flooding cost:

        cSIndx2 = cSIndx + repl * dup2   [msg]
    """
    if replication < 1:
        raise ParameterError(f"replication must be >= 1, got {replication}")
    if dup2 < 1.0:
        raise ParameterError(f"dup2 must be >= 1, got {dup2}")
    return c_search_index(num_active_peers) + replication * dup2


def c_routing_maintenance(
    env: float, num_active_peers: int, indexed_keys: float
) -> float:
    """Routing-table maintenance cost per key per round, ``cRtn`` (Eq. 8).

    Each of the ``numActivePeers`` DHT members probes its
    ``log2(numActivePeers)``-entry routing table at rate ``env`` probes per
    entry per second; dividing the network-wide probe traffic by the number
    of indexed keys gives the per-key share:

        cRtn = env * log2(numActivePeers) * numActivePeers / maxRank  [msg/s]
    """
    if env < 0:
        raise ParameterError(f"env must be >= 0, got {env}")
    if num_active_peers < 0:
        raise ParameterError(
            f"num_active_peers must be >= 0, got {num_active_peers}"
        )
    if indexed_keys <= 0:
        return 0.0
    if num_active_peers <= 1:
        return 0.0
    return env * math.log2(num_active_peers) * num_active_peers / indexed_keys


def c_update(
    num_active_peers: int, replication: int, dup2: float, update_freq: float
) -> float:
    """Replica-consistent update cost per key per round, ``cUpd`` (Eq. 9).

    An update is routed to one responsible peer (one index search) and then
    gossiped through the replica subnetwork ([DaHa03] hybrid push/pull):

        cUpd = (cSIndx + repl * dup2) * fUpd   [msg/s]
    """
    if update_freq < 0:
        raise ParameterError(f"update_freq must be >= 0, got {update_freq}")
    per_update = c_search_index(num_active_peers) + replication * dup2
    return per_update * update_freq


@dataclass(frozen=True)
class CostModel:
    """All Eq. 6-10/16 costs evaluated for one scenario and one index size.

    The model is parameterised by how many keys are currently indexed
    (``indexed_keys``), because both the lookup cost and the per-key
    maintenance share depend on the number of peers hosting the index.

    Attributes mirror the paper's symbols; see the module functions for the
    formulas.
    """

    params: ScenarioParameters
    indexed_keys: float

    def __post_init__(self) -> None:
        if self.indexed_keys < 0:
            raise ParameterError(
                f"indexed_keys must be >= 0, got {self.indexed_keys}"
            )

    @property
    def num_active_peers(self) -> int:
        """Peers participating in the DHT for this index size."""
        return self.params.active_peers_for(self.indexed_keys)

    @property
    def search_unstructured(self) -> float:
        """``cSUnstr`` (Eq. 6)."""
        return c_search_unstructured(
            self.params.num_peers, self.params.replication, self.params.dup
        )

    @property
    def search_index(self) -> float:
        """``cSIndx`` (Eq. 7)."""
        return c_search_index(self.num_active_peers)

    @property
    def search_index_with_replicas(self) -> float:
        """``cSIndx2`` (Eq. 16)."""
        return c_search_index_with_replicas(
            self.num_active_peers, self.params.replication, self.params.dup2
        )

    @property
    def routing_maintenance(self) -> float:
        """``cRtn`` (Eq. 8)."""
        return c_routing_maintenance(
            self.params.env, self.num_active_peers, self.indexed_keys
        )

    @property
    def update(self) -> float:
        """``cUpd`` (Eq. 9). Zero for an empty index (nothing to update)."""
        if self.indexed_keys == 0:
            return 0.0
        return c_update(
            self.num_active_peers,
            self.params.replication,
            self.params.dup2,
            self.params.update_freq,
        )

    @property
    def index_key(self) -> float:
        """``cIndKey = cRtn + cUpd`` (Eq. 10)."""
        return self.routing_maintenance + self.update

    @property
    def search_advantage(self) -> float:
        """``cSUnstr - cSIndx``: per-query saving of an index hit (Eq. 1)."""
        return self.search_unstructured - self.search_index

    @classmethod
    def full_index(cls, params: ScenarioParameters) -> "CostModel":
        """Cost model when every key is indexed (``maxRank = keys``)."""
        return cls(params=params, indexed_keys=float(params.n_keys))
