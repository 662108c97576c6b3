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

Within one liveness epoch and one DHT membership version a peer's
answer cannot change: asking again finds the same gateway at the most
recent end of its cache and leaves the cache, the probe count and the
"gateway" stream as they are. So :class:`GatewayCache` memoises each
answer under that pair and re-derives only after a flip or a join — a
join alone makes the new member its own gateway without any flip.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ParameterError, RoutingError
from repro.net.node import PeerId
from repro.sim.metrics import MessageCategory

if TYPE_CHECKING:
    from repro.dht.pgrid import PGridDht

__all__ = ["GatewayCache"]


class GatewayCache:
    """Per-peer caches of known DHT members, with re-bootstrap on failure.

    Parameters
    ----------
    dht:
        The DHT: its members are the bootstrap universe, its population
        the liveness source, and its metrics where the bootstrap probes
        are counted.
    rng:
        Randomness for bootstrap probing.
    """

    #: Gateways remembered per peer.
    cache_size = 3

    def __init__(self, dht: PGridDht, rng: np.random.Generator) -> None:
        if not dht.size:
            raise ParameterError("bootstrap needs at least one DHT member")
        self.dht = dht
        self.population = dht.population
        self.rng = rng
        self._caches: dict[PeerId, OrderedDict[PeerId, None]] = {}
        #: Peer -> the gateway last returned to it, valid while the
        #: liveness epoch and the membership version are the ones below.
        self._answers: dict[PeerId, PeerId] = {}
        self._answers_epoch = -1
        self._answers_version = -1

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

        An answer is remembered until the liveness epoch or the
        membership version moves: until then asking again would find the
        same gateway at the most recent end of the peer's cache, which a
        hit leaves where it is, and nothing else.
        """
        epoch = self.population.liveness_epoch
        version = self.dht.membership_version
        if epoch == self._answers_epoch and version == self._answers_version:
            gateway = self._answers.get(peer_id)
            if gateway is not None:
                return gateway
        else:
            self._answers = {}
            self._answers_epoch = epoch
            self._answers_version = version
        gateway = self._answers[peer_id] = self._discover(peer_id)
        return gateway

    def _discover(self, peer_id: PeerId) -> PeerId:
        """:meth:`gateway_for` without the answer memo."""
        self.population.require_online(peer_id)
        if self.dht.is_member(peer_id):
            return peer_id  # and online, just checked

        # A cached gateway stays a member: the DHT has no leave.
        cache = self._cache_for(peer_id)
        recent = True
        for gateway in reversed(cache):
            if self.population.is_online(gateway):
                if not recent:  # the most recent one stays where it is
                    cache.move_to_end(gateway)
                return gateway
            recent = False

        # Re-bootstrap: probe members in random order until one answers.
        candidates = self.dht.members()
        order = self.rng.permutation(len(candidates))
        for idx in order:
            candidate = candidates[int(idx)]
            self.dht.metrics.count(MessageCategory.MEMBERSHIP, 2)
            if self.population.is_online(candidate):
                self._remember(peer_id, candidate)
                return candidate
        raise RoutingError("no online DHT member reachable for bootstrap")
