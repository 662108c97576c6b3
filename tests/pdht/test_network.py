"""Tests for the wired-up PDHT network (the Section 5.1 query path)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.sim.metrics import MessageCategory


@pytest.fixture
def tiny_params():
    return ScenarioParameters(
        num_peers=120,
        n_keys=200,
        storage_per_peer=20,
        replication=10,
        query_freq=1.0 / 30.0,
    )


@pytest.fixture
def network(tiny_params):
    config = PdhtConfig(key_ttl=50.0, replication=10, walkers=8)
    net = PdhtNetwork(tiny_params, config, seed=3, num_active_peers=40)
    net.publish("hot", "payload")
    return net


class TestConstruction:
    def test_active_peers_default_from_selection_model(self, tiny_params):
        net = PdhtNetwork(tiny_params, PdhtConfig(key_ttl=100.0, replication=10))
        assert 2 <= net.dht.size <= tiny_params.num_peers

    def test_explicit_active_peers(self, network):
        assert network.dht.size == 40

    def test_invalid_active_peers_rejected(self, tiny_params):
        with pytest.raises(ParameterError):
            PdhtNetwork(tiny_params, PdhtConfig(), num_active_peers=1)
        with pytest.raises(ParameterError):
            PdhtNetwork(tiny_params, PdhtConfig(), num_active_peers=10_000)

    def test_replica_groups_partition_members(self, network):
        covered = sorted(
            member for group in network._groups for member in group.members
        )
        assert covered == sorted(network.dht._members)

    def test_replica_groups_sized_near_repl(self, network):
        for group in network._groups:
            assert 2 <= len(group.members) <= 2 * network.config.replication

    def test_every_member_has_node(self, network):
        assert set(network.stores) == set(network.dht._members)

    def test_group_of_non_member_rejected(self, network):
        outsider = next(
            p for p in range(len(network.population))
            if p not in network.dht._members
        )
        with pytest.raises(ParameterError):
            network.group_of(outsider)


class TestQueryPath:
    def test_first_query_broadcasts_and_inserts(self, network):
        outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.found
        assert not outcome.via_index
        assert outcome.walk_messages >= 0
        assert outcome.insert_messages > 0

    def test_second_query_hits_index(self, network):
        network.query(network.random_online_peer(), "hot")
        outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.via_index
        assert outcome.walk_messages == 0
        assert outcome.insert_messages == 0

    def test_index_hit_is_cheap(self, network):
        network.query(network.random_online_peer(), "hot")
        hit = network.query(network.random_online_peer(), "hot")
        miss_cost = 120 / 10  # numPeers/repl: order of the broadcast cost
        assert hit.total_messages < miss_cost * 3

    def test_nonexistent_key_not_inserted(self, network):
        outcome = network.query(network.random_online_peer(), "ghost")
        assert not outcome.found
        assert outcome.insert_messages == 0
        assert network.distinct_indexed_keys() == 0

    def test_key_expires_after_quiet_ttl(self, network):
        network.query(network.random_online_peer(), "hot")
        assert network.distinct_indexed_keys() >= 1
        network.advance(network.config.key_ttl + 1.0)
        assert network.distinct_indexed_keys() == 0

    def test_queries_keep_key_alive(self, network):
        network.query(network.random_online_peer(), "hot")
        for _ in range(5):
            network.advance(network.config.key_ttl * 0.6)
            outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.via_index

    def test_policy_counters_track_path(self, network):
        # The outcome fields a strategy's counters are tallied from.
        miss = network.query(network.random_online_peer(), "hot")
        hit = network.query(network.random_online_peer(), "hot")
        ghost = network.query(network.random_online_peer(), "ghost")
        assert (miss.via_index, miss.found, miss.inserted) == (False, True, True)
        assert (hit.via_index, hit.found, hit.inserted) == (True, True, False)
        assert (ghost.via_index, ghost.found, ghost.inserted) == (
            False, False, False
        )

    def test_offline_origin_rejected(self, network):
        from repro.errors import OfflinePeerError

        origin = network.random_online_peer()
        network.population.set_online(origin, False)
        with pytest.raises(OfflinePeerError):
            network.query(origin, "hot")


class TestMessageAccounting:
    def test_categories_populated(self, network):
        network.query(network.random_online_peer(), "hot")
        network.advance(5.0)
        totals = network.metrics.totals_by_category()
        assert totals[MessageCategory.INDEX_SEARCH] > 0
        assert totals[MessageCategory.MAINTENANCE] > 0

    def test_maintenance_rate_matches_env(self, network):
        network.metrics.reset()
        network.advance(100.0)
        measured = network.metrics.total(MessageCategory.MAINTENANCE) / 100.0
        expected = network.maintenance.expected_rate()
        assert measured == pytest.approx(expected, rel=0.15)

    def test_disable_maintenance_clears_the_round_hook(self, network):
        network.disable_maintenance()
        assert network.simulation.round_hook is None
        network.advance(3.0)
        assert network.simulation.processed_events == 0

    def test_disable_maintenance_stops_probes(self, network):
        network.disable_maintenance()
        network.metrics.reset()
        network.advance(50.0)
        assert network.metrics.total(MessageCategory.MAINTENANCE) == 0.0


class TestAdvance:
    def test_nan_rounds_rejected(self, network):
        network.advance(3.0)
        with pytest.raises(ParameterError):
            network.advance(math.nan)
        assert network.simulation.now == 3.0

    def test_infinite_rounds_rejected(self, network):
        # Maintenance off and no churn, so nothing recurs and the queue
        # would drain: only the check stops the clock reaching inf.
        network.disable_maintenance()
        with pytest.raises(ParameterError):
            network.advance(math.inf)
        assert network.simulation.now == 0.0


class TestUpdatesAndPreload:
    def test_preload_makes_key_hittable(self, network):
        network.preload_index_all({"hot": "payload"})
        outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.via_index

    def test_preload_counts_no_messages(self, network):
        before = network.metrics.total()
        network.preload_index_all({"hot": "payload"})
        assert network.metrics.total() == before

    def test_proactive_update_costs_lookup_plus_flood(self, network):
        network.preload_index_all({"hot": "payload"})
        messages = network.proactive_update("hot", "payload-v2")
        assert messages >= network.config.replication * 0.5


class TestChurnIntegration:
    def test_the_clock_runs_the_network_churn(self, tiny_params):
        config = PdhtConfig(key_ttl=100.0, replication=10, walkers=8)
        churn = ChurnConfig(mean_session=20.0, mean_offline=10.0)
        net = PdhtNetwork(
            tiny_params, config, seed=5, num_active_peers=60, churn=churn
        )
        assert net.simulation.churn is net.churn
        before = net.population.liveness_epoch
        net.advance(10.0)
        applied = net.population.liveness_epoch - before
        assert applied > 0
        # Every transition applied and one sweep a round.
        assert net.simulation.processed_events == applied + 10

    def test_network_survives_churn(self, tiny_params):
        config = PdhtConfig(key_ttl=100.0, replication=10, walkers=8)
        churn = ChurnConfig(mean_session=300.0, mean_offline=100.0)
        net = PdhtNetwork(
            tiny_params, config, seed=5, num_active_peers=60, churn=churn
        )
        net.publish("hot", "v")
        answered = 0
        for _ in range(30):
            net.advance(10.0)
            try:
                origin = net.random_online_peer()
            except ParameterError:
                continue
            outcome = net.query(origin, "hot")
            answered += int(outcome.found)
        # Replication 10 over 120 peers at 75% availability: the key should
        # be found nearly always.
        assert answered >= 25
