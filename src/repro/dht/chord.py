"""Chord [StMo01]: a ring with finger tables.

Members are placed on the ``2^bits`` ring at their hashed identifiers; the
member responsible for a key is the key's *successor* (first member
clockwise from the key's identifier). Each member keeps a finger table
whose ``k``-th entry is the successor of ``id + 2^k``; greedy routing via
the closest preceding finger resolves a lookup in ``O(log n)`` hops —
about ``1/2 log2(n)`` on average, which is exactly the constant the
paper's Eq. 7 charges.

Simulation simplifications:

* Routing tables are rebuilt from the global member set when membership
  changes (join/leave of the DHT), instead of running the incremental
  stabilisation protocol. Membership changes are rare in the experiments —
  *churn* (liveness flapping of members) is the frequent event, and it is
  handled at routing time: offline fingers are skipped, matching the
  paper's assumption that stale entries are detected by probing (costed in
  :mod:`repro.dht.maintenance`) and repaired for free by piggybacking.
"""

from __future__ import annotations

import bisect

from repro.dht.base import DistributedHashTable
from repro.errors import RoutingError
from repro.net.node import PeerId

__all__ = ["ChordDht"]


class ChordDht(DistributedHashTable):
    """Chord backend. See module docstring for conventions."""

    def _rebuild(self) -> None:
        members = sorted(self._members, key=lambda p: self.population[p].dht_id)
        self._ring_ids = [self.population[p].dht_id for p in members]
        self._ring_peers = members
        self._fingers: dict[PeerId, list[PeerId]] = {}
        n = len(members)
        if n == 0:
            return
        # Fingers must cover the whole ring: one per bit of the key space,
        # at base + 2^k for k = 0..bits-1. Consecutive small spans collapse
        # onto the same successor and are deduplicated, so the stored table
        # is O(log n) entries despite the 160 candidate spans.
        for idx, peer in enumerate(members):
            base = self._ring_ids[idx]
            fingers: list[PeerId] = []
            seen: set[PeerId] = set()
            for k in range(self.keyspace.bits):
                point = (base + (1 << k)) % self.keyspace.size
                finger = self._successor_member(point)
                if finger != peer and finger not in seen:
                    seen.add(finger)
                    fingers.append(finger)
            self._fingers[peer] = fingers

    # ------------------------------------------------------------------
    def _successor_member(self, point: int) -> PeerId:
        """First member at or clockwise after ``point`` (liveness ignored)."""
        if not self._ring_ids:
            raise RoutingError("Chord ring is empty")
        idx = bisect.bisect_left(self._ring_ids, point)
        if idx == len(self._ring_ids):
            idx = 0
        return self._ring_peers[idx]

    def _responsible(self, target: int) -> PeerId:
        """First *online* member at or clockwise after ``target``."""
        self._ensure_routing()
        if not self._ring_ids:
            raise RoutingError("Chord ring is empty")
        n = len(self._ring_ids)
        idx = bisect.bisect_left(self._ring_ids, target) % n
        for step in range(n):
            peer = self._ring_peers[(idx + step) % n]
            if self.population.is_online(peer):
                return peer
        raise RoutingError("no online members on the Chord ring")

    # ------------------------------------------------------------------
    def _route(
        self, origin: PeerId, target: int, hops: list[tuple[PeerId, PeerId]]
    ) -> PeerId:
        responsible = self._responsible(target)
        current = origin
        limit = len(self._members) + self.keyspace.bits
        while current != responsible:
            nxt = self._best_hop(current, target, responsible)
            hops.append((current, nxt))
            current = nxt
            if len(hops) > limit:
                raise RoutingError(
                    f"Chord routing did not converge within {limit} hops"
                )
        return responsible

    def _best_hop(self, current: PeerId, target: int, responsible: PeerId) -> PeerId:
        """Closest preceding online finger; fall back to the online successor."""
        current_id = self.population[current].dht_id
        best: PeerId | None = None
        best_distance = None
        for finger in self._fingers.get(current, ()):
            if not self.population.is_online(finger):
                continue  # stale entry detected by probing; skip
            finger_id = self.population[finger].dht_id
            # A useful finger lies strictly between current and target
            # (clockwise): it makes progress without overshooting.
            if self.keyspace.in_interval(finger_id, current_id, target, inclusive_end=True):
                distance = self.keyspace.distance_cw(finger_id, target)
                if best_distance is None or distance < best_distance:
                    best, best_distance = finger, distance
        if best is not None and best != current:
            return best
        # No finger makes progress: walk to the next online member clockwise.
        nxt = self._online_successor_after(current_id)
        if nxt == current:
            # Only one online member left; it must be the responsible one.
            return responsible
        return nxt

    def _online_successor_after(self, point: int) -> PeerId:
        """First online member strictly clockwise after ``point``."""
        n = len(self._ring_ids)
        if n == 0:
            raise RoutingError("Chord ring is empty")
        idx = bisect.bisect_right(self._ring_ids, point) % n
        for step in range(n):
            peer = self._ring_peers[(idx + step) % n]
            if self.population.is_online(peer):
                return peer
        raise RoutingError("no online members on the Chord ring")

    # ------------------------------------------------------------------
    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        self._ensure_routing()
        return list(self._fingers.get(peer_id, ()))
