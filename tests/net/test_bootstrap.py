"""Tests for gateway discovery (Section 3.2's 'know one online member')."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError, RoutingError
from repro.net.bootstrap import GatewayCache
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics


@pytest.fixture
def setup(rng):
    population = PeerPopulation(50)
    metrics = MessageMetrics()
    members = set(range(10))  # peers 0-9 are DHT members
    cache = GatewayCache(population, members, metrics, rng)
    return population, cache, metrics


class TestGatewayLookup:
    def test_member_is_its_own_gateway(self, setup):
        _, cache, _ = setup
        assert cache.gateway_for(5) == 5

    def test_returns_online_member(self, setup):
        population, cache, _ = setup
        gateway = cache.gateway_for(20)
        assert gateway in cache.members
        assert population.is_online(gateway)

    def test_cache_hit_costs_nothing(self, setup):
        _, cache, metrics = setup
        cache.gateway_for(20)  # bootstrap, pays probes
        before = metrics.total(MessageCategory.MEMBERSHIP)
        cache.gateway_for(20)  # cached
        assert metrics.total(MessageCategory.MEMBERSHIP) == before
        assert cache.cache_hits == 1

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
        for member in list(cache.members)[:5]:
            population.set_online(member, False)
        cache.gateway_for(30)
        assert metrics.total(MessageCategory.MEMBERSHIP) == 2 * cache.bootstrap_probes

    def test_all_members_offline_raises(self, setup):
        population, cache, _ = setup
        for member in cache.members:
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

    def test_update_members_keeps_stale_entries_until_failure(self, setup):
        population, cache, _ = setup
        old = cache.gateway_for(20)
        cache.members = {8, 9}  # DHT re-provisioned
        gateway = cache.gateway_for(20)
        # The stale cached gateway is no longer a member, so a fresh
        # member must be returned.
        assert gateway in {8, 9}
        del old

    def test_hit_rate_reporting(self, setup):
        _, cache, _ = setup
        assert (cache.cache_hits, cache.cache_misses) == (0, 0)
        cache.gateway_for(20)
        cache.gateway_for(20)
        assert (cache.cache_hits, cache.cache_misses) == (1, 1)

    def test_invalid_construction(self, rng):
        population = PeerPopulation(5)
        with pytest.raises(ParameterError):
            GatewayCache(population, set(), MessageMetrics(), rng)
