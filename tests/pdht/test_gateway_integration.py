"""Tests for gateway-cache integration in the PDHT query path."""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.sim.metrics import MessageCategory


@pytest.fixture
def network():
    params = ScenarioParameters(
        num_peers=100, n_keys=150, replication=10, storage_per_peer=30
    )
    config = PdhtConfig(key_ttl=100.0, replication=10, walkers=8)
    net = PdhtNetwork(params, config, seed=2, num_active_peers=30)
    net.publish("hot", "v")
    return net


class TestGatewayIntegration:
    def test_repeat_queries_hit_gateway_cache(self, network):
        outsider = next(
            p for p in range(len(network.population))
            if not network.dht.is_member(p)
        )
        network.query(outsider, "hot")
        discovered = network.metrics.total(MessageCategory.MEMBERSHIP)
        assert discovered > 0
        network.query(outsider, "hot")
        assert network.metrics.total(MessageCategory.MEMBERSHIP) == discovered

    def test_membership_traffic_is_minor_in_steady_state(self, network):
        # Gateway discovery must be a small share of steady-state traffic
        # (otherwise the paper's assumption that knowing one member is
        # free would distort the cost model). Steady state = repeat
        # queriers with warm caches; construction-time joins excluded.
        queriers = [
            p for p in range(len(network.population))
            if p not in network.dht._members
        ][:5]
        for querier in queriers:  # warm the caches
            network.query(querier, "hot")
        network.metrics.reset()
        for i in range(40):
            network.query(queriers[i % len(queriers)], "hot")
        totals = network.metrics.totals_by_category()
        membership = totals.get(MessageCategory.MEMBERSHIP, 0.0)
        assert membership < 0.1 * sum(totals.values())

    def test_dht_member_origin_pays_no_discovery(self, network):
        member = next(iter(network.dht._members))
        before = network.metrics.total(MessageCategory.MEMBERSHIP)
        network.query(member, "hot")
        assert network.metrics.total(MessageCategory.MEMBERSHIP) == before

    def test_query_survives_total_dht_outage(self, network):
        for member in network.dht._members:
            network.population.set_online(member, False)
        origin = network.random_online_peer()
        outcome = network.query(origin, "hot")
        # Only the broadcast path remains; the query must still resolve.
        assert outcome.found
        assert not outcome.via_index
        assert outcome.index_messages == 0
