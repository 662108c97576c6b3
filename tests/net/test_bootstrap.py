"""Tests for gateway discovery (Section 3.2's 'know one online member')."""

from __future__ import annotations

import copy

import pytest

from repro.dht.pgrid import PGridDht
from repro.errors import ParameterError, RoutingError
from repro.net.bootstrap import GatewayCache
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics


@pytest.fixture
def setup(rng):
    population = PeerPopulation(50)
    metrics = MessageMetrics()
    dht = PGridDht(population, metrics)
    dht.join_all(range(10))  # peers 0-9 are DHT members
    metrics.reset()  # the joins' messages
    cache = GatewayCache(dht, rng)
    return population, cache, metrics


class TestGatewayLookup:
    def test_member_is_its_own_gateway(self, setup):
        _, cache, _ = setup
        assert cache.gateway_for(5) == 5

    def test_returns_online_member(self, setup):
        population, cache, _ = setup
        gateway = cache.gateway_for(20)
        assert cache.dht.is_member(gateway)
        assert population.is_online(gateway)

    def test_cache_hit_costs_nothing(self, setup):
        _, cache, metrics = setup
        cache.gateway_for(20)  # bootstrap, pays probes
        before = metrics.total(MessageCategory.MEMBERSHIP)
        cache.gateway_for(20)  # cached
        assert metrics.total(MessageCategory.MEMBERSHIP) == before

    def test_rebootstrap_when_cached_gateway_dies(self, setup):
        population, cache, metrics = setup
        first = cache.gateway_for(20)
        population.set_online(first, False)
        before = metrics.total(MessageCategory.MEMBERSHIP)
        second = cache.gateway_for(20)
        assert second != first
        assert population.is_online(second)
        assert metrics.total(MessageCategory.MEMBERSHIP) > before

    def test_probes_count_request_and_response(self, setup):
        population, cache, metrics = setup
        # Take half the members offline so bootstrap probes dead ones too.
        for member in range(5):
            population.set_online(member, False)
        # The members in the order the bootstrap will probe them, up to
        # the first online one.
        order = copy.deepcopy(cache.rng).permutation(10)
        probes = next(i for i, m in enumerate(order) if m >= 5) + 1
        cache.gateway_for(30)
        assert metrics.total(MessageCategory.MEMBERSHIP) == 2 * probes

    def test_all_members_offline_raises(self, setup):
        population, cache, _ = setup
        for member in cache.dht.members():
            population.set_online(member, False)
        with pytest.raises(RoutingError):
            cache.gateway_for(20)

    def test_offline_requester_rejected(self, setup):
        population, cache, _ = setup
        from repro.errors import OfflinePeerError

        population.set_online(20, False)
        with pytest.raises(OfflinePeerError):
            cache.gateway_for(20)


class TestCacheBehaviour:
    def test_cache_bounded(self, setup):
        population, cache, _ = setup
        # Force many distinct gateways into one peer's cache by killing
        # each gateway after use.
        used = []
        for _ in range(5):
            gateway = cache.gateway_for(25)
            used.append(gateway)
            population.set_online(gateway, False)
        assert len(cache._caches[25]) <= 3

    def test_invalid_construction(self, rng):
        dht = PGridDht(PeerPopulation(5), MessageMetrics())
        with pytest.raises(ParameterError):
            GatewayCache(dht, rng)
