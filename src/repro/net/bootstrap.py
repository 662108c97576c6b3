"""Gateway discovery for peers outside the DHT.

Section 3.2: "For the remaining peers, to perform searches, it is
sufficient to know at least one online peer that is participating in the
DHT." This module implements that mechanism instead of assuming it: every
non-member keeps a small cache of known DHT members; when all cached
gateways are found offline the peer re-bootstraps by asking a random
online acquaintance (one request/response pair per hop until a member is
found), and every successful interaction refreshes the cache.

Messages are accounted in the MEMBERSHIP category, so experiments can
check that gateway discovery is a negligible share of total traffic (it
must be, or the paper's cSIndx accounting would be incomplete).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ParameterError, RoutingError
from repro.net.node import PeerId, PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics

__all__ = ["GatewayCache"]


class GatewayCache:
    """Per-peer caches of known DHT members, with re-bootstrap on failure.

    Parameters
    ----------
    population:
        The shared peer population (liveness source).
    members:
        Current DHT member set (the bootstrap universe).
    metrics:
        Where the bootstrap probes are counted.
    rng:
        Randomness for bootstrap probing.
    """

    #: Gateways remembered per peer.
    cache_size = 3

    def __init__(
        self,
        population: PeerPopulation,
        members: set[PeerId],
        metrics: MessageMetrics,
        rng: np.random.Generator,
    ) -> None:
        if not members:
            raise ParameterError("bootstrap needs at least one DHT member")
        self.population = population
        self.members = set(members)
        self.metrics = metrics
        self.rng = rng
        self._caches: dict[PeerId, OrderedDict[PeerId, None]] = {}
        self.bootstrap_probes = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def _cache_for(self, peer_id: PeerId) -> OrderedDict[PeerId, None]:
        cache = self._caches.get(peer_id)
        if cache is None:
            cache = OrderedDict()
            self._caches[peer_id] = cache
        return cache

    def _remember(self, peer_id: PeerId, gateway: PeerId) -> None:
        cache = self._cache_for(peer_id)
        cache.pop(gateway, None)
        cache[gateway] = None  # most-recently-used at the end
        while len(cache) > self.cache_size:
            cache.popitem(last=False)

    def gateway_for(self, peer_id: PeerId) -> PeerId:
        """An online DHT member for ``peer_id`` to route through.

        Tries the peer's cache first (most recent first); on total cache
        failure, bootstraps by probing random members — each probe is one
        request/response pair. Raises :class:`RoutingError` when no member
        of the DHT is online at all.
        """
        self.population.require_online(peer_id)
        if peer_id in self.members:
            return peer_id  # and online, just checked

        cache = self._cache_for(peer_id)
        recent = True
        for gateway in reversed(cache):
            if (
                gateway in self.members
                and self.population.is_online(gateway)
            ):
                self.cache_hits += 1
                if not recent:  # the most recent one stays where it is
                    cache.move_to_end(gateway)
                return gateway
            recent = False
        self.cache_misses += 1

        # Re-bootstrap: probe members in random order until one answers.
        candidates = sorted(self.members)
        order = self.rng.permutation(len(candidates))
        for idx in order:
            candidate = candidates[int(idx)]
            self.metrics.count(MessageCategory.MEMBERSHIP, 2)
            self.bootstrap_probes += 1
            if self.population.is_online(candidate):
                self._remember(peer_id, candidate)
                return candidate
        raise RoutingError("no online DHT member reachable for bootstrap")
