"""Peers and peer populations.

A :class:`Peer` is the unit of membership in every overlay. It owns:

* an integer :class:`PeerId` (dense, 0-based — convenient as array index),
* a 160-bit DHT identifier derived by hashing the peer id (used by the
  structured overlays in :mod:`repro.dht`),
* liveness state driven by the churn process.

Content replicas live in the unstructured overlay (one holder bitmask
per key) and index entries in the PDHT's per-member stores, not here.

:class:`PeerPopulation` is the container the simulation wires together.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import OfflinePeerError, ParameterError

__all__ = ["PeerId", "Peer", "PeerPopulation"]

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


@dataclass
class Peer:
    """One peer: identity and liveness.

    Attributes
    ----------
    peer_id:
        Dense 0-based identifier.
    online:
        Current liveness. Offline peers neither route nor answer queries.
    joined_at / left_at:
        Times of the most recent session transitions (for diagnostics).
    """

    peer_id: PeerId
    online: bool = True
    joined_at: float = 0.0
    left_at: float = float("nan")

    def __post_init__(self) -> None:
        if self.peer_id < 0:
            raise ParameterError(f"peer_id must be >= 0, got {self.peer_id}")
        self.dht_id = dht_id_for(self.peer_id)

    def require_online(self) -> None:
        """Raise :class:`OfflinePeerError` unless the peer is online."""
        if not self.online:
            raise OfflinePeerError(f"peer {self.peer_id} is offline")

    def go_offline(self, now: float) -> None:
        self.online = False
        self.left_at = now

    def go_online(self, now: float) -> None:
        self.online = True
        self.joined_at = now

    def __hash__(self) -> int:
        return hash(self.peer_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.online else "off"
        return f"Peer({self.peer_id}, {state})"


class PeerPopulation:
    """A fixed universe of peers with fast online/offline bookkeeping.

    The population is fixed (the paper models a steady-state network where
    peers cycle between online and offline rather than arriving and
    departing forever), but the *online subset* changes constantly under
    churn.
    """

    def __init__(self, num_peers: int) -> None:
        if num_peers < 1:
            raise ParameterError(f"num_peers must be >= 1, got {num_peers}")
        self._peers = [Peer(peer_id=i) for i in range(num_peers)]
        self._online_ids: set[PeerId] = set(range(num_peers))
        #: Bumped on every real liveness transition; caches derived from
        #: the online set (here and in the topology) are valid for one epoch.
        self.liveness_epoch = 0
        self._sorted_online: tuple[PeerId, ...] | None = None

    def __len__(self) -> int:
        return len(self._peers)

    def __iter__(self) -> Iterator[Peer]:
        return iter(self._peers)

    def __getitem__(self, peer_id: PeerId) -> Peer:
        if not 0 <= peer_id < len(self._peers):
            raise ParameterError(
                f"peer_id must be in [0, {len(self._peers)}), got {peer_id}"
            )
        return self._peers[peer_id]

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

    def set_online(self, peer_id: PeerId, online: bool, now: float = 0.0) -> None:
        """Transition a peer's liveness (no-op if already in that state)."""
        peer = self[peer_id]
        if bool(online) == peer.online:
            return
        if online:
            peer.go_online(now)
            self._online_ids.add(peer_id)
        else:
            peer.go_offline(now)
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
