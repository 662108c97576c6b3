"""The unstructured overlay: population + topology + content lookup."""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.errors import ParameterError
from repro.net.messages import MessageLog
from repro.net.node import PeerId, PeerPopulation
from repro.net.topology import GnutellaTopology
from repro.sim.metrics import MessageMetrics

__all__ = ["UnstructuredOverlay"]


class UnstructuredOverlay:
    """A Gnutella-like overlay over which broadcast searches run.

    The overlay owns the peer population, the connection graph, and the
    message log; the search algorithm (:class:`RandomWalkSearch`) operates
    *on* an overlay rather than holding its own state, so one network can
    be probed by several searches in the same experiment.
    """

    def __init__(
        self,
        population: PeerPopulation,
        rng: np.random.Generator,
        degree: int = 4,
        metrics: Optional[MessageMetrics] = None,
        keep_messages: bool = False,
    ) -> None:
        self.population = population
        self.topology = GnutellaTopology(population, degree, rng)
        self.metrics = metrics or MessageMetrics()
        self.log = MessageLog(self.metrics, keep_messages=keep_messages)

    # ------------------------------------------------------------------
    # Content plane
    # ------------------------------------------------------------------
    def store(self, peer_id: PeerId, key: Hashable, value: object) -> None:
        """Place a content replica at a peer (no messages counted here;
        placement cost is modelled by the replicator that calls this)."""
        self.population[peer_id].content[key] = value

    def drop(self, peer_id: PeerId, key: Hashable) -> None:
        """Remove a content replica (no-op when absent)."""
        self.population[peer_id].content.pop(key, None)

    def peer_has(self, peer_id: PeerId, key: Hashable) -> bool:
        """Does an *online* peer hold a replica of ``key``?

        Offline peers hold their replicas but cannot answer, which is why
        replication and availability interact (Section 4 of the paper sizes
        ``repl`` to meet target availability).
        """
        peer = self.population[peer_id]
        return peer.online and key in peer.content

    def value_at(self, peer_id: PeerId, key: Hashable) -> object:
        """The replica payload at a peer (KeyError if absent)."""
        return self.population[peer_id].content[key]

    def holders_of(self, key: Hashable) -> list[PeerId]:
        """All peers (online or not) holding ``key`` — test/diagnostic aid."""
        return [p.peer_id for p in self.population if key in p.content]

    # ------------------------------------------------------------------
    # Neighbour plane
    # ------------------------------------------------------------------
    def online_neighbors(self, peer_id: PeerId) -> list[PeerId]:
        return self.topology.online_neighbors(peer_id)

    def random_online_peer(self, rng: np.random.Generator) -> PeerId:
        """A uniformly random online peer (query originator, walk restart)."""
        online = self.population.sorted_online_ids()
        if not online:
            raise ParameterError("no peers online")
        return online[int(rng.integers(0, len(online)))]
