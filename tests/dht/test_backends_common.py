"""The DHT contract, on P-Grid.

The paper's analysis is generic over "traditional DHTs"; these tests pin
the contract it relies on: deterministic responsibility, correct routing
to the responsible peer, logarithmic-ish hop counts, message accounting,
and graceful behaviour under offline members.
"""

from __future__ import annotations

import math

import pytest

from repro.dht import PGridDht
from repro.errors import ParameterError, RoutingError
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics

from test_routing_views_equivalence import leave

BACKENDS = [PGridDht]
BACKEND_IDS = ["pgrid"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def dht(request):
    population = PeerPopulation(128)
    instance = request.param(population, MessageMetrics())
    instance.join_all(range(100))
    return instance


class TestMembership:
    def test_size_counts_members(self, dht):
        assert dht.size == 100

    def test_join_is_idempotent(self, dht):
        dht.join(5)
        assert dht.size == 100

    def test_online_members_tracks_liveness(self, dht):
        dht.population.set_online(3, False)
        assert 3 not in dht.online_members()


class TestResponsibility:
    def test_responsible_is_online_member(self, dht):
        peer = dht.responsible_for("article:42")
        assert peer in dht._members
        assert dht.population.is_online(peer)

    def test_responsible_deterministic(self, dht):
        assert dht.responsible_for("k") == dht.responsible_for("k")

    def test_responsibility_moves_when_owner_leaves(self, dht):
        key = "migrating-key"
        owner = dht.responsible_for(key)
        leave(dht, owner)
        new_owner = dht.responsible_for(key)
        assert new_owner != owner
        assert new_owner in dht._members

    def test_responsibility_skips_offline_owner(self, dht):
        key = "churn-key"
        owner = dht.responsible_for(key)
        dht.population.set_online(owner, False)
        fallback = dht.responsible_for(key)
        assert fallback != owner
        assert dht.population.is_online(fallback)

    def test_keys_spread_over_members(self, dht):
        owners = {dht.responsible_for(f"key-{i}") for i in range(300)}
        # 300 keys across 100 members: a healthy overlay uses many owners.
        assert len(owners) > 30


class TestLookup:
    def test_lookup_reaches_responsible(self, dht):
        origin = dht.online_members()[0]
        result = dht.lookup(origin, "k")
        assert result.responsible == dht.responsible_for("k")

    def test_lookup_from_responsible_is_free(self, dht):
        key = "self-lookup"
        owner = dht.responsible_for(key)
        result = dht.lookup(owner, key)
        assert result.messages == 0

    def test_hops_scale_sanely(self, dht):
        origins = dht.online_members()[:20]
        hops = [dht.lookup(o, f"key-{i}").messages for i, o in enumerate(origins)]
        mean_hops = sum(hops) / len(hops)
        # ~0.5 log2(100) ~= 3.3; anything wildly above that indicates
        # broken routing.
        assert mean_hops <= 3 * math.log2(100)
        assert max(hops) <= 100

    def test_lookup_counts_messages(self, dht):
        origin = dht.online_members()[0]
        before = dht.metrics.total(MessageCategory.INDEX_SEARCH)
        result = dht.lookup(origin, "counted")
        after = dht.metrics.total(MessageCategory.INDEX_SEARCH)
        assert after - before == result.messages

    def test_lookup_from_non_member_rejected(self, dht):
        with pytest.raises(ParameterError):
            dht.lookup(120, "k")

    def test_lookup_from_offline_member_rejected(self, dht):
        dht.population.set_online(0, False)
        from repro.errors import OfflinePeerError

        with pytest.raises(OfflinePeerError):
            dht.lookup(0, "k")

    def test_routing_survives_heavy_churn(self, dht):
        # Take 40% of members offline; lookups must still resolve.
        for member in list(dht._members)[::3]:
            dht.population.set_online(member, False)
        origin = dht.online_members()[0]
        for i in range(20):
            result = dht.lookup(origin, f"churned-{i}")
            assert dht.population.is_online(result.responsible)


class TestRoutingTables:
    def test_members_have_routing_entries(self, dht):
        for member in dht.online_members()[:10]:
            table = dht.routing_table(member)
            assert table, f"member {member} has an empty routing table"
            assert all(entry in dht._members for entry in table)

    def test_table_size_logarithmic(self, dht):
        sizes = [len(dht.routing_table(m)) for m in dht.online_members()]
        mean_size = sum(sizes) / len(sizes)
        # O(log n); 128 members => a few dozen entries at most.
        assert mean_size <= 8 * math.log2(128)


class TestEmptyAndTiny:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_empty_dht_has_no_responsible(self, backend):
        population = PeerPopulation(4)
        dht = backend(population, MessageMetrics())
        with pytest.raises(RoutingError):
            dht.responsible_for("k")

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_single_member_owns_everything(self, backend):
        population = PeerPopulation(4)
        dht = backend(population, MessageMetrics())
        dht.join(2)
        assert dht.responsible_for("a") == 2
        assert dht.lookup(2, "a").messages == 0

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_two_members_route_one_hop(self, backend):
        population = PeerPopulation(4)
        dht = backend(population, MessageMetrics())
        dht.join_all([0, 1])
        for key in ("a", "b", "c", "d", "e"):
            owner = dht.responsible_for(key)
            other = 1 - owner
            result = dht.lookup(other, key)
            assert result.responsible == owner
            assert result.messages <= 2

