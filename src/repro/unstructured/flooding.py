"""TTL-scoped flooding — the classic Gnutella search baseline.

The paper dismisses plain flooding as "not optimal even for unstructured
networks" and assumes random walks instead; we implement flooding anyway
because it is the natural baseline for the walk-vs-flood tests (and because
the replica-subnetwork propagation of Section 5 *is* a flood, reused by
:mod:`repro.replication.replica_network`).

A flood forwards the query to every online neighbour except the peer it
arrived from, decrementing the TTL per hop. Every forwarded copy is one
message; peers receiving a duplicate discard it but the message was still
sent — that surplus is precisely the duplication factor ``dup`` of Eq. 6.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.errors import ParameterError
from repro.net.messages import MessageKind
from repro.net.node import PeerId
from repro.unstructured.overlay import UnstructuredOverlay

__all__ = ["FloodResult", "FloodSearch"]


@dataclass(frozen=True)
class FloodResult:
    """Outcome and cost of one flood."""

    key: Hashable
    found: bool
    value: object
    holder: Optional[PeerId]
    messages: int
    reached_peers: int
    max_depth: int

    @property
    def duplication_factor(self) -> float:
        """Measured ``dup``: messages per reached peer."""
        if self.reached_peers == 0:
            return 0.0
        return self.messages / self.reached_peers


class FloodSearch:
    """Breadth-first TTL-scoped flooding over an unstructured overlay."""

    def __init__(self, overlay: UnstructuredOverlay, ttl: int = 7) -> None:
        if ttl < 1:
            raise ParameterError(f"ttl must be >= 1, got {ttl}")
        self.overlay = overlay
        self.ttl = ttl

    def search(
        self, origin: PeerId, key: Hashable, stop_on_hit: bool = True
    ) -> FloodResult:
        """Flood for ``key`` from online peer ``origin``.

        ``stop_on_hit=False`` floods the full TTL horizon even after a hit,
        which is how the replica subnetwork disseminates (every replica
        must see the update, not just the first).
        """
        self.overlay.population[origin].require_online()

        seen: set[PeerId] = {origin}
        messages = 0
        max_depth = 0
        found_at: Optional[PeerId] = None

        if self.overlay.peer_has(origin, key):
            found_at = origin
            if stop_on_hit:
                return FloodResult(
                    key=key,
                    found=True,
                    value=self.overlay.value_at(origin, key),
                    holder=origin,
                    messages=0,
                    reached_peers=1,
                    max_depth=0,
                )

        frontier: deque[tuple[PeerId, PeerId | None, int]] = deque()
        frontier.append((origin, None, 0))

        while frontier:
            peer, came_from, depth = frontier.popleft()
            if depth >= self.ttl:
                continue
            for neighbor in self.overlay.online_neighbors(peer):
                if neighbor == came_from:
                    continue
                self.overlay.log.send(MessageKind.QUERY_FLOOD, peer, neighbor, key)
                messages += 1
                if neighbor in seen:
                    continue  # duplicate copy: counted, not forwarded
                seen.add(neighbor)
                max_depth = max(max_depth, depth + 1)
                if found_at is None and self.overlay.peer_has(neighbor, key):
                    found_at = neighbor
                    if stop_on_hit:
                        return FloodResult(
                            key=key,
                            found=True,
                            value=self.overlay.value_at(neighbor, key),
                            holder=neighbor,
                            messages=messages,
                            reached_peers=len(seen),
                            max_depth=max_depth,
                        )
                frontier.append((neighbor, peer, depth + 1))

        return FloodResult(
            key=key,
            found=found_at is not None,
            value=(
                self.overlay.value_at(found_at, key) if found_at is not None else None
            ),
            holder=found_at,
            messages=messages,
            reached_peers=len(seen),
            max_depth=max_depth,
        )
