"""CAN [RaFr01]: a content-addressable network on a d-dimensional torus.

CAN is the fourth "traditional DHT" the paper cites. The key space is the
unit torus ``[0,1)^d``; each member owns a rectangular zone, keys map to
points (one hash coordinate per dimension), and the zone containing a
key's point is responsible for it. Members keep the owners of zones
adjacent to theirs (sharing a (d-1)-dimensional face) as neighbours, and
greedy routing forwards towards the neighbour whose zone is closest to
the target point — ``O(d * n^(1/d))`` hops.

CAN deliberately breaks the paper's simplifying assumption of logarithmic
lookups (footnote 2/3 territory): with small ``d`` its lookup cost is
polynomial, which shows how the indexing trade-off shifts when cSIndx
grows.

Zones are built by median splits of the member set (a k-d construction),
cycling the split dimension, so the zone tree stays balanced under any
membership. Same simulation conventions as the other backends: rebuild on
membership change, liveness checked per hop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.dht.base import DistributedHashTable
from repro.errors import RoutingError
from repro.net.node import PeerId

__all__ = ["CanDht", "Zone"]


@dataclass(frozen=True)
class Zone:
    """An axis-aligned box on the unit torus, owned by one member."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def contains(self, point: tuple[float, ...]) -> bool:
        return all(
            lo <= x < hi for lo, x, hi in zip(self.lows, point, self.highs)
        )

    def center(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lows, self.highs))

    def volume(self) -> float:
        out = 1.0
        for lo, hi in zip(self.lows, self.highs):
            out *= hi - lo
        return out


def _torus_axis_distance(a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, 1.0 - d)


class CanDht(DistributedHashTable):
    """CAN backend on a ``dimensions``-dimensional unit torus."""

    def __init__(self, *args, dimensions: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        if not 1 <= dimensions <= 8:
            raise RoutingError(f"dimensions must be in [1, 8], got {dimensions}")
        self.dimensions = dimensions

    # ------------------------------------------------------------------
    # Geometry construction
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        members = sorted(self._members)
        self._zones: dict[PeerId, Zone] = {}
        self._neighbors: dict[PeerId, list[PeerId]] = {}
        if not members:
            return
        full = Zone(lows=(0.0,) * self.dimensions, highs=(1.0,) * self.dimensions)
        self._assign(members, full, axis=0)
        self._link_neighbors(members)

    def _assign(self, members: list[PeerId], zone: Zone, axis: int) -> None:
        """Recursively split ``zone`` between ``members`` (median k-d cut)."""
        if len(members) == 1:
            self._zones[members[0]] = zone
            return
        # Sort by the peer's own coordinate on this axis so the assignment
        # is deterministic and churn-independent.
        ordered = sorted(
            members, key=lambda m: (self._peer_point(m)[axis], m)
        )
        half = len(ordered) // 2
        lows, highs = list(zone.lows), list(zone.highs)
        mid = (zone.lows[axis] + zone.highs[axis]) / 2.0
        left_highs = highs.copy()
        left_highs[axis] = mid
        right_lows = lows.copy()
        right_lows[axis] = mid
        next_axis = (axis + 1) % self.dimensions
        self._assign(ordered[:half], Zone(tuple(lows), tuple(left_highs)), next_axis)
        self._assign(ordered[half:], Zone(tuple(right_lows), tuple(highs)), next_axis)

    def _link_neighbors(self, members: list[PeerId]) -> None:
        """Connect members whose zones share a (d-1)-dimensional face.

        O(n^2) pair scan — fine at simulation scales (rebuilds are rare and
        member counts are in the low thousands).
        """
        eps = 1e-12

        def touch(a: Zone, b: Zone) -> bool:
            """Face adjacency: abutting on exactly one axis, overlapping
            with positive length on every other axis (corner/edge contact
            does not make CAN neighbours)."""
            abut_axes = 0
            for dim in range(self.dimensions):
                lo_a, hi_a = a.lows[dim], a.highs[dim]
                lo_b, hi_b = b.lows[dim], b.highs[dim]
                overlap = min(hi_a, hi_b) - max(lo_a, lo_b)
                if overlap > eps:
                    continue  # proper overlap on this axis
                abut = (
                    abs(hi_a - lo_b) < eps
                    or abs(hi_b - lo_a) < eps
                    # Torus wrap: faces at 1.0 and 0.0 touch.
                    or (abs(hi_a - 1.0) < eps and abs(lo_b) < eps)
                    or (abs(hi_b - 1.0) < eps and abs(lo_a) < eps)
                )
                if abut:
                    abut_axes += 1
                else:
                    return False  # a gap on this axis: no contact at all
            return abut_axes == 1

        self._neighbors = {m: [] for m in members}
        for i, a in enumerate(members):
            zone_a = self._zones[a]
            for b in members[i + 1 :]:
                if touch(zone_a, self._zones[b]):
                    self._neighbors[a].append(b)
                    self._neighbors[b].append(a)

    # ------------------------------------------------------------------
    # Point mapping
    # ------------------------------------------------------------------
    def _point_for(self, label: str) -> tuple[float, ...]:
        """Hash a label to a torus point: one SHA-1 per dimension."""
        coords = []
        for dim in range(self.dimensions):
            digest = hashlib.sha1(f"{label}#{dim}".encode("utf-8")).digest()
            coords.append(int.from_bytes(digest[:8], "big") / 2**64)
        return tuple(coords)

    def _peer_point(self, peer_id: PeerId) -> tuple[float, ...]:
        return self._point_for(f"peer:{peer_id}")

    def _key_point(self, target: int) -> tuple[float, ...]:
        # ``target`` is the 160-bit hash from the shared key space; spread
        # its bits over the dimensions.
        coords = []
        bits_per_dim = self.keyspace.bits // self.dimensions
        for dim in range(self.dimensions):
            shift = self.keyspace.bits - (dim + 1) * bits_per_dim
            chunk = (target >> shift) & ((1 << bits_per_dim) - 1)
            coords.append(chunk / (1 << bits_per_dim))
        return tuple(coords)

    def _distance(self, a: tuple[float, ...], b: tuple[float, ...]) -> float:
        return sum(_torus_axis_distance(x, y) ** 2 for x, y in zip(a, b))

    # ------------------------------------------------------------------
    # Responsibility and routing
    # ------------------------------------------------------------------
    def _owner_of_point(self, point: tuple[float, ...]) -> PeerId:
        for member, zone in self._zones.items():
            if zone.contains(point):
                return member
        raise RoutingError(f"no zone contains point {point}")

    def _responsible(self, target: int) -> PeerId:
        self._ensure_routing()
        if not self._zones:
            raise RoutingError("CAN has no members")
        point = self._key_point(target)
        owner = self._owner_of_point(point)
        if self.population.is_online(owner):
            return owner
        # Owner offline: the closest online zone (by centre) takes over —
        # CAN's zone-takeover, idealised.
        best = None
        best_d = None
        for member, zone in self._zones.items():
            if not self.population.is_online(member):
                continue
            d = self._distance(zone.center(), point)
            if best_d is None or d < best_d or (d == best_d and member < best):
                best, best_d = member, d
        if best is None:
            raise RoutingError("CAN has no online members")
        return best

    def _route(
        self, origin: PeerId, target: int, hops: list[tuple[PeerId, PeerId]]
    ) -> PeerId:
        responsible = self._responsible(target)
        point = self._key_point(target)
        current = origin
        limit = 4 * len(self._members) + 16
        visited = {current}
        while current != responsible:
            nxt = self._next_hop(current, point, responsible, visited)
            hops.append((current, nxt))
            visited.add(nxt)
            current = nxt
            if len(hops) > limit:
                raise RoutingError(
                    f"CAN routing did not converge within {limit} hops"
                )
        return responsible

    def _next_hop(
        self,
        current: PeerId,
        point: tuple[float, ...],
        responsible: PeerId,
        visited: set[PeerId],
    ) -> PeerId:
        current_zone = self._zones[current]
        current_d = self._distance(current_zone.center(), point)
        best = None
        best_d = current_d
        for neighbor in self._neighbors.get(current, ()):
            if not self.population.is_online(neighbor):
                continue
            d = self._distance(self._zones[neighbor].center(), point)
            if d < best_d:
                best, best_d = neighbor, d
        if best is not None:
            return best
        # Greedy dead end (offline pocket or centre-metric local minimum):
        # try any unvisited online neighbour before teleporting.
        for neighbor in self._neighbors.get(current, ()):
            if neighbor not in visited and self.population.is_online(neighbor):
                return neighbor
        return responsible

    # ------------------------------------------------------------------
    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        self._ensure_routing()
        return list(self._neighbors.get(peer_id, ()))

    def zone_of(self, peer_id: PeerId) -> Zone:
        """The member's zone (diagnostics and tests)."""
        self._ensure_routing()
        if peer_id not in self._zones:
            raise RoutingError(f"peer {peer_id} is not a CAN member")
        return self._zones[peer_id]
