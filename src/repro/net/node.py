"""Dense peer ids and the peer population.

A peer is a dense 0-based :class:`PeerId` (convenient as an array index);
its liveness lives in the :class:`PeerPopulation`'s online set, driven by
the churn process. A DHT member's 160-bit identifier is
:func:`dht_id_for` of its id, hashed once by the DHT when it joins.

Content replicas live in the unstructured overlay (one holder bitmask
per key) and index entries in the PDHT's per-member stores, not here.
"""

from __future__ import annotations

import hashlib

from repro.errors import OfflinePeerError, ParameterError

__all__ = ["PeerId", "PeerPopulation", "dht_id_for"]

#: Dense 0-based peer identifier.
PeerId = int

#: Width of the DHT identifier space in bits (SHA-1).
ID_BITS = 160


def dht_id_for(peer_id: PeerId) -> int:
    """Map a dense peer id to a 160-bit DHT identifier via SHA-1.

    Hashing makes structured-overlay identifiers uniform in the key space
    regardless of how dense peer ids were assigned.
    """
    digest = hashlib.sha1(f"peer:{peer_id}".encode("ascii")).digest()
    return int.from_bytes(digest, "big")


class PeerPopulation:
    """A fixed universe of peers and the subset of them online.

    The population is fixed (the paper models a steady-state network where
    peers cycle between online and offline rather than arriving and
    departing forever), but the *online subset* changes constantly under
    churn. Every peer starts online.
    """

    def __init__(self, num_peers: int) -> None:
        if num_peers < 1:
            raise ParameterError(f"num_peers must be >= 1, got {num_peers}")
        self._size = num_peers
        self._online_ids: set[PeerId] = set(range(num_peers))
        #: Bumped on every real liveness transition; caches derived from
        #: the online set (here and in the topology) are valid for one epoch.
        self.liveness_epoch = 0
        self._sorted_online: tuple[PeerId, ...] | None = None

    def __len__(self) -> int:
        return self._size

    def check(self, peer_id: PeerId) -> None:
        """Raise :class:`ParameterError` unless ``peer_id`` is a peer."""
        if not 0 <= peer_id < self._size:
            raise ParameterError(
                f"peer_id must be in [0, {self._size}), got {peer_id}"
            )

    @property
    def online_ids(self) -> frozenset[PeerId]:
        """Snapshot of the currently online peer ids."""
        return frozenset(self._online_ids)

    def sorted_online_ids(self) -> tuple[PeerId, ...]:
        """The online peer ids in ascending order (sorted once per epoch)."""
        if self._sorted_online is None:
            self._sorted_online = tuple(sorted(self._online_ids))
        return self._sorted_online

    def is_online(self, peer_id: PeerId) -> bool:
        return peer_id in self._online_ids

    def require_online(self, peer_id: PeerId) -> None:
        """Raise unless ``peer_id`` is an online peer: offline peers
        neither route nor answer queries."""
        if peer_id not in self._online_ids:
            self.check(peer_id)
            raise OfflinePeerError(f"peer {peer_id} is offline")

    def set_online(self, peer_id: PeerId, online: bool) -> None:
        """Transition a peer's liveness (no-op if already in that state)."""
        self.check(peer_id)
        if bool(online) == (peer_id in self._online_ids):
            return
        if online:
            self._online_ids.add(peer_id)
        else:
            self._online_ids.discard(peer_id)
        self.liveness_epoch += 1
        self._sorted_online = None

    def sample_online(self, rng, size: int) -> list[PeerId]:
        """Sample ``size`` distinct online peer ids uniformly at random."""
        online = self.sorted_online_ids()
        if size > len(online):
            raise ParameterError(
                f"cannot sample {size} peers, only {len(online)} online"
            )
        chosen = rng.choice(len(online), size=size, replace=False)
        return [online[i] for i in chosen]
