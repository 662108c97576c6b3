"""The unstructured overlay: population + topology + content lookup."""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.errors import ParameterError
from repro.net.node import PeerId, PeerPopulation
from repro.net.topology import GnutellaTopology
from repro.sim.metrics import MessageMetrics

__all__ = ["ContentRecord", "UnstructuredOverlay"]


class ContentRecord:
    """The replicas of one key: which peers hold it — bit ``p`` of
    ``mask`` for peer ``p`` — and the one payload they all hold."""

    __slots__ = ("mask", "value")

    def __init__(self, mask: int, value: object) -> None:
        self.mask = mask
        self.value = value


class UnstructuredOverlay:
    """A Gnutella-like overlay over which broadcast searches run.

    The overlay owns the peer population, the connection graph, the
    message counters and the content plane; the search algorithm
    (:class:`RandomWalkSearch`) operates *on* an overlay rather than
    holding its own state, so one network can be probed by several
    searches in the same experiment.

    The content plane is one :class:`ContentRecord` per key held anywhere
    (:attr:`content`), not a store per peer: a search fetches its key's
    record once and checks a peer with one bit test. A key has one
    payload: storing another value for a key some peer holds raises.
    """

    def __init__(
        self,
        population: PeerPopulation,
        rng: np.random.Generator,
        degree: int = 4,
        metrics: Optional[MessageMetrics] = None,
    ) -> None:
        self.population = population
        self.topology = GnutellaTopology(population, degree, rng)
        self.metrics = metrics or MessageMetrics()
        #: key -> its replicas; a key no peer holds has no record.
        self.content: dict[Hashable, ContentRecord] = {}

    # ------------------------------------------------------------------
    # Content plane
    # ------------------------------------------------------------------
    def add_replicas(self, key: Hashable, mask: int, value: object) -> None:
        """Place ``value`` under ``key`` at every peer whose bit is set in
        ``mask`` (no messages counted here; placement cost is modelled by
        the replicator that calls this)."""
        record = self.content.get(key)
        if record is None:
            self.content[key] = ContentRecord(mask, value)
            return
        held = record.value
        if held is not value and held != value:
            raise ParameterError(
                f"key {key!r} is already held with another payload"
            )
        record.mask |= mask

    def drop_replicas(self, key: Hashable, mask: int) -> None:
        """Remove the replicas at every peer of ``mask`` (no-op where
        absent); the key's record goes with its last replica."""
        record = self.content.get(key)
        if record is None:
            return
        record.mask &= ~mask
        if not record.mask:
            del self.content[key]

    def peer_has(self, peer_id: PeerId, key: Hashable) -> bool:
        """Does an *online* peer hold a replica of ``key``?

        Offline peers hold their replicas but cannot answer, which is why
        replication and availability interact (Section 4 of the paper sizes
        ``repl`` to meet target availability).
        """
        if not self.population.is_online(peer_id):
            return False
        record = self.content.get(key)
        return record is not None and (record.mask >> peer_id) & 1 == 1

    def value_at(self, peer_id: PeerId, key: Hashable) -> object:
        """The replica payload at a peer (KeyError if absent)."""
        record = self.content.get(key)
        if record is None or not (record.mask >> peer_id) & 1:
            raise KeyError(key)
        return record.value
