"""One PDHT peer: a DHT member contributing TTL-governed index storage."""

from __future__ import annotations

from repro.errors import ParameterError
from repro.net.node import PeerId
from repro.pdht.ttl_cache import TtlEntry, TtlKeyStore

__all__ = ["PdhtNode"]


class PdhtNode:
    """The index-plane state of one DHT member.

    A PDHT node is intentionally thin: liveness lives in the shared
    :class:`~repro.net.node.PeerPopulation`, routing lives in the DHT
    backend, and this class owns only the TTL key store plus a couple of
    convenience wrappers used by the network layer.
    """

    def __init__(self, peer_id: PeerId, key_ttl: float) -> None:
        if peer_id < 0:
            raise ParameterError(f"peer_id must be >= 0, got {peer_id}")
        self.peer_id = peer_id
        self.store = TtlKeyStore(ttl=key_ttl)

    # ------------------------------------------------------------------
    def index_query(self, key: str, now: float) -> TtlEntry | None:
        """Local index lookup; resets the key's TTL on a hit (Section 5.1)."""
        return self.store.query(key, now)

    def index_insert(self, key: str, value: object, now: float) -> TtlEntry:
        """Store a broadcast-resolved key with a fresh expiration."""
        return self.store.insert(key, value, now)

    def has_live(self, key: str, now: float) -> bool:
        """Non-mutating membership check (used by replica flood predicates)."""
        return self.store.peek(key, now) is not None

    def index_size(self, now: float) -> int:
        return self.store.live_size(now)

    def set_ttl(self, key_ttl: float) -> None:
        """Retarget the TTL (used by the adaptive controller); existing
        entries keep their current expiry and adopt the new TTL on their
        next hit or reinsertion."""
        if key_ttl < 0:
            raise ParameterError(f"key_ttl must be >= 0, got {key_ttl}")
        self.store.ttl = float(key_ttl)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PdhtNode({self.peer_id}, stored={len(self.store)})"
