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
from collections import deque
from collections.abc import Set as AbstractSet
from itertools import islice

from repro.errors import OfflinePeerError, ParameterError
from repro.obs.cache import counted_cache

__all__ = ["PeerId", "PeerPopulation", "dht_id_for", "PEER_HASH_MEMO"]

#: Dense 0-based peer identifier.
PeerId = int

#: Width of the DHT identifier space in bits (SHA-1).
ID_BITS = 160


#: Identifiers :func:`dht_id_for` remembers: every peer of a figure at
#: the default scale (1,000) — each network of a figure joins the same
#: members. A larger population cycles through it without hits, and
#: holds no more than this many identifiers beside its DHTs' own.
PEER_HASH_MEMO = 1 << 11


@counted_cache("peer_hash", maxsize=PEER_HASH_MEMO)
def dht_id_for(peer_id: PeerId) -> int:
    """Map a dense peer id to a 160-bit DHT identifier via SHA-1.

    Hashing makes structured-overlay identifiers uniform in the key space
    regardless of how dense peer ids were assigned. Memoised per process
    (``cache.peer_hash.*``).
    """
    digest = hashlib.sha1(f"peer:{peer_id}".encode("ascii")).digest()
    return int.from_bytes(digest, "big")


class PeerPopulation:
    """A fixed universe of peers and the subset of them online.

    The population is fixed (the paper models a steady-state network where
    peers cycle between online and offline rather than arriving and
    departing forever), but the *online subset* changes constantly under
    churn. Every peer starts online.

    A real transition (a *flip*) bumps :attr:`liveness_epoch` and is
    logged; a no-op :meth:`set_online` does neither. A view derived from
    the online set remembers the epoch it was built at and, when the
    epoch has moved, asks :meth:`flipped_since` which peers flipped: it
    re-derives only what depends on those peers (the overlay rows of
    their neighbours, a replica group they belong to, the DHT views when
    one is a member) and rebuilds in full when the log no longer reaches
    back that far. The log holds peer ids only and calls nobody back.
    """

    def __init__(self, num_peers: int) -> None:
        if num_peers < 1:
            raise ParameterError(f"num_peers must be >= 1, got {num_peers}")
        self._size = num_peers
        self._online_ids: set[PeerId] = set(range(num_peers))
        #: Bumped on every real liveness transition; caches derived from
        #: the online set (here and in the topology) are valid for one
        #: epoch, or are patched forward with :meth:`flipped_since`.
        self.liveness_epoch = 0
        #: The peer each of the last ``num_peers`` flips flipped, oldest
        #: first. A view further behind rebuilds in full, which costs no
        #: more than patching that many flips.
        self._flips: deque[PeerId] = deque(maxlen=num_peers)
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
        self._flips.append(peer_id)
        self._sorted_online = None

    def flipped_since(self, epoch: int) -> list[PeerId] | None:
        """The peer of every flip since :attr:`liveness_epoch` was
        ``epoch``, newest first (a peer that flipped twice is listed
        twice), or None when that is further back than the log reaches (a
        negative ``epoch`` always is): the caller then rebuilds what it
        derived from the online set in full."""
        behind = self.liveness_epoch - epoch
        if behind > len(self._flips):
            return None
        return list(islice(reversed(self._flips), behind))

    def any_flipped_since(self, epoch: int, peers: AbstractSet[PeerId]) -> bool:
        """Whether one of ``peers`` flipped since :attr:`liveness_epoch`
        was ``epoch``; True as well when the log does not reach back that
        far, since it cannot tell."""
        flipped = self.flipped_since(epoch)
        return flipped is None or not peers.isdisjoint(flipped)

    def sample_online(self, rng, size: int) -> list[PeerId]:
        """Sample ``size`` distinct online peer ids uniformly at random."""
        online = self.sorted_online_ids()
        if size > len(online):
            raise ParameterError(
                f"cannot sample {size} peers, only {len(online)} online"
            )
        chosen = rng.choice(len(online), size=size, replace=False)
        return [online[i] for i in chosen]
