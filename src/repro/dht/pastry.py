"""Pastry [RoDr01]: prefix routing with a leaf set.

Identifiers are read as digits of base ``2^b`` (default b = 4, i.e. hex
digits). A member's routing table row ``r`` holds, for every digit value
``c``, some member whose identifier shares the first ``r`` digits with the
member and has digit ``c`` at position ``r``. A lookup forwards to the
entry matching one more digit of the target each hop, so it resolves in
``O(log_{2^b} n)`` hops. The leaf set (the ``L`` numerically closest
members) finishes the last hop and provides the fall-back path when table
entries are missing or offline.

Same simulation conventions as :class:`~repro.dht.chord.ChordDht`: routing
state is rebuilt on membership change; liveness is checked per hop.
"""

from __future__ import annotations

import bisect
import math

from repro.dht.base import DistributedHashTable
from repro.errors import RoutingError
from repro.net.node import PeerId

__all__ = ["PastryDht"]


class PastryDht(DistributedHashTable):
    """Pastry backend with base-``2^b`` prefix routing."""

    def __init__(self, *args, digit_bits: int = 4, leaf_set_size: int = 8, **kwargs):
        super().__init__(*args, **kwargs)
        if digit_bits < 1:
            raise RoutingError(f"digit_bits must be >= 1, got {digit_bits}")
        if leaf_set_size < 2:
            raise RoutingError(f"leaf_set_size must be >= 2, got {leaf_set_size}")
        self.digit_bits = digit_bits
        self.leaf_set_size = leaf_set_size

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        members = sorted(self._members, key=lambda p: self.population[p].dht_id)
        self._ring_peers = members
        self._ring_ids = [self.population[p].dht_id for p in members]
        n = len(members)
        self._tables: dict[PeerId, dict[tuple[int, int], PeerId]] = {}
        self._leaves: dict[PeerId, list[PeerId]] = {}
        if n == 0:
            return
        max_rows = max(1, math.ceil(math.log(max(n, 2), 2 ** self.digit_bits)) + 1)
        for idx, peer in enumerate(members):
            self._tables[peer] = self._build_table(idx, max_rows)
            self._leaves[peer] = self._build_leaf_set(idx)

    def _build_table(self, idx: int, max_rows: int) -> dict[tuple[int, int], PeerId]:
        peer = self._ring_peers[idx]
        peer_id_num = self._ring_ids[idx]
        table: dict[tuple[int, int], PeerId] = {}
        radix = 1 << self.digit_bits
        for row in range(max_rows):
            shift = self.keyspace.bits - (row + 1) * self.digit_bits
            if shift < 0:
                break
            own_digit = self.keyspace.digit(peer_id_num, row, self.digit_bits)
            prefix = peer_id_num >> (shift + self.digit_bits)
            for col in range(radix):
                if col == own_digit:
                    continue
                lo = ((prefix << self.digit_bits) | col) << shift
                hi = lo + (1 << shift)
                candidate = self._member_in_range(lo, hi)
                if candidate is not None and candidate != peer:
                    table[(row, col)] = candidate
        return table

    def _member_in_range(self, lo: int, hi: int) -> PeerId | None:
        """Any member whose identifier falls in ``[lo, hi)``."""
        idx = bisect.bisect_left(self._ring_ids, lo)
        if idx < len(self._ring_ids) and self._ring_ids[idx] < hi:
            return self._ring_peers[idx]
        return None

    def _build_leaf_set(self, idx: int) -> list[PeerId]:
        n = len(self._ring_peers)
        half = self.leaf_set_size // 2
        leaves: list[PeerId] = []
        for offset in range(1, min(half, n - 1) + 1):
            leaves.append(self._ring_peers[(idx - offset) % n])
            leaves.append(self._ring_peers[(idx + offset) % n])
        # Dedupe while keeping order (tiny rings wrap onto the same peers).
        seen: set[PeerId] = set()
        unique = []
        for leaf in leaves:
            if leaf not in seen and leaf != self._ring_peers[idx]:
                seen.add(leaf)
                unique.append(leaf)
        return unique

    # ------------------------------------------------------------------
    def _responsible(self, target: int) -> PeerId:
        """Online member numerically closest to ``target`` (ring distance)."""
        self._ensure_routing()
        online = [
            (self.population[p].dht_id, p)
            for p in self._ring_peers
            if self.population.is_online(p)
        ]
        if not online:
            raise RoutingError("Pastry network has no online members")
        half = self.keyspace.size // 2

        def ring_distance(ident: int) -> int:
            d = abs(ident - target)
            return min(d, self.keyspace.size - d)

        # Ties broken towards the smaller identifier, then peer id, for
        # determinism; with 160-bit SHA-1 ids ties never occur in practice.
        best = min(online, key=lambda pair: (ring_distance(pair[0]), pair[0]))
        del half
        return best[1]

    def _route(
        self, origin: PeerId, target: int, hops: list[tuple[PeerId, PeerId]]
    ) -> PeerId:
        responsible = self._responsible(target)
        current = origin
        limit = len(self._members) + self.keyspace.bits
        while current != responsible:
            nxt = self._next_hop(current, target, responsible)
            hops.append((current, nxt))
            current = nxt
            if len(hops) > limit:
                raise RoutingError(
                    f"Pastry routing did not converge within {limit} hops"
                )
        return responsible

    def _next_hop(self, current: PeerId, target: int, responsible: PeerId) -> PeerId:
        current_num = self.population[current].dht_id
        # 1. Leaf set: if the responsible node is a leaf, finish directly.
        leaves = [
            leaf for leaf in self._leaves.get(current, ())
            if self.population.is_online(leaf)
        ]
        if responsible in leaves:
            return responsible
        # 2. Routing table: extend the shared prefix by one digit.
        row = self._shared_digits(current_num, target)
        target_digit = self.keyspace.digit(target, row, self.digit_bits)
        entry = self._tables.get(current, {}).get((row, target_digit))
        if entry is not None and self.population.is_online(entry):
            return entry
        # 3. Fall back: any known online node strictly closer to the target.
        candidates = leaves + [
            e for e in self._tables.get(current, {}).values()
            if self.population.is_online(e)
        ]
        current_distance = self._ring_distance(current_num, target)
        best = None
        best_distance = current_distance
        for candidate in candidates:
            d = self._ring_distance(self.population[candidate].dht_id, target)
            if d < best_distance:
                best, best_distance = candidate, d
        if best is not None:
            return best
        # 4. Last resort: hop straight to the responsible node (models the
        # expanded leaf-set repair Pastry performs after heavy failures).
        return responsible

    def _ring_distance(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.keyspace.size - d)

    def _shared_digits(self, a: int, b: int) -> int:
        n_digits = self.keyspace.bits // self.digit_bits
        for position in range(n_digits):
            if self.keyspace.digit(a, position, self.digit_bits) != self.keyspace.digit(
                b, position, self.digit_bits
            ):
                return position
        return n_digits - 1

    # ------------------------------------------------------------------
    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        self._ensure_routing()
        table = list(self._tables.get(peer_id, {}).values())
        return table + list(self._leaves.get(peer_id, ()))
