"""One PDHT peer: a DHT member contributing TTL-governed index storage."""

from __future__ import annotations

from repro.errors import ParameterError
from repro.net.node import PeerId
from repro.pdht.ttl_cache import TtlKeyStore

__all__ = ["PdhtNode"]


class PdhtNode:
    """The index-plane state of one DHT member.

    A PDHT node is intentionally thin: liveness lives in the shared
    :class:`~repro.net.node.PeerPopulation`, routing lives in the DHT
    backend, and this class owns only the TTL key store, which the network
    layer reads and writes directly.
    """

    def __init__(self, peer_id: PeerId, key_ttl: float) -> None:
        if peer_id < 0:
            raise ParameterError(f"peer_id must be >= 0, got {peer_id}")
        self.peer_id = peer_id
        self.store = TtlKeyStore(ttl=key_ttl)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PdhtNode({self.peer_id}, stored={len(self.store)})"
