"""CAN-specific tests (zone geometry, dimensionality, hop scaling)."""

from __future__ import annotations

import pytest

from repro.dht.can import CanDht, Zone
from repro.errors import RoutingError
from repro.net.messages import MessageLog
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageMetrics


def build_can(n_members: int, dimensions: int = 2) -> CanDht:
    population = PeerPopulation(max(n_members, 2))
    dht = CanDht(
        population, MessageLog(MessageMetrics()), dimensions=dimensions
    )
    dht.join_all(range(n_members))
    return dht


class TestZone:
    def test_contains_half_open(self):
        zone = Zone(lows=(0.0, 0.0), highs=(0.5, 0.5))
        assert zone.contains((0.0, 0.0))
        assert zone.contains((0.49, 0.49))
        assert not zone.contains((0.5, 0.25))

    def test_center_and_volume(self):
        zone = Zone(lows=(0.0, 0.5), highs=(0.5, 1.0))
        assert zone.center() == (0.25, 0.75)
        assert zone.volume() == pytest.approx(0.25)


class TestGeometry:
    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_zones_tile_the_torus(self, dimensions):
        dht = build_can(64, dimensions)
        total = sum(dht.zone_of(m).volume() for m in dht.members)
        assert total == pytest.approx(1.0)

    def test_zones_are_disjoint(self):
        dht = build_can(32, 2)
        # Sample points; each must be in exactly one zone.
        import itertools

        for x, y in itertools.product([0.1, 0.3, 0.55, 0.9], repeat=2):
            owners = [
                m for m in dht.members if dht.zone_of(m).contains((x, y))
            ]
            assert len(owners) == 1

    def test_neighbor_counts_near_2d(self):
        # On a d-torus with balanced zones every member has ~2d neighbours.
        for d in (1, 2, 3):
            dht = build_can(64, d)
            counts = [len(dht.routing_table(m)) for m in dht.members]
            mean = sum(counts) / len(counts)
            assert 2 * d * 0.7 <= mean <= 2 * d * 2.0, f"d={d}: {mean}"

    def test_neighbors_symmetric(self):
        dht = build_can(48, 2)
        for member in dht.members:
            for neighbor in dht.routing_table(member):
                assert member in dht.routing_table(neighbor)

    def test_invalid_dimensions_rejected(self):
        population = PeerPopulation(4)
        with pytest.raises(RoutingError):
            CanDht(population, MessageLog(MessageMetrics()), dimensions=0)
        with pytest.raises(RoutingError):
            CanDht(population, MessageLog(MessageMetrics()), dimensions=9)


class TestRouting:
    def test_hops_scale_as_root_n(self):
        # O(d/4 * n^(1/d)): quadrupling n in 2-d doubles mean hops.
        def mean_hops(n):
            dht = build_can(n, 2)
            members = dht.online_members()
            hops = [
                dht.lookup(members[i % n], f"key-{i}").hops for i in range(150)
            ]
            return sum(hops) / len(hops)

        small, large = mean_hops(64), mean_hops(256)
        assert 1.4 < large / small < 2.8

    def test_dimension_trades_hops_for_neighbors(self):
        hops_by_d = {}
        for d in (1, 2, 3):
            dht = build_can(128, d)
            members = dht.online_members()
            hops = [
                dht.lookup(members[i % 128], f"key-{i}").hops
                for i in range(100)
            ]
            hops_by_d[d] = sum(hops) / len(hops)
        assert hops_by_d[1] > hops_by_d[2] > hops_by_d[3]
        for d, measured in hops_by_d.items():
            model = d / 4 * 128 ** (1 / d)
            assert 0.5 * model < measured < 2.5 * model, f"d={d}"

    def test_takeover_when_owner_offline(self):
        dht = build_can(32, 2)
        key = "takeover-key"
        owner = dht.responsible_for(key)
        dht.population.set_online(owner, False)
        successor = dht.responsible_for(key)
        assert successor != owner
        assert dht.population.is_online(successor)
        origin = dht.online_members()[0]
        assert dht.lookup(origin, key).responsible == successor

    def test_zone_of_non_member_rejected(self):
        dht = build_can(8, 2)
        with pytest.raises(RoutingError):
            dht.zone_of(50)

    def test_storage_roundtrip(self):
        dht = build_can(16, 2)
        origin = dht.online_members()[0]
        dht.insert(origin, "k", "v")
        assert dht.lookup(origin, "k").found_value == "v"
