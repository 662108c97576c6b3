"""Tests for replica subnetworks."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ParameterError
from repro.net.node import PeerPopulation
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.metrics import MessageCategory, MessageMetrics


def graph_of(group):
    """The group's connections as a ``networkx`` graph."""
    return nx.from_dict_of_lists(group._adjacency)


@pytest.fixture
def group(rng):
    population = PeerPopulation(100)
    members = list(range(10, 60))  # 50 replicas, like the paper
    return ReplicaNetwork(population, members, rng, MessageMetrics(), degree=3)


class TestConstruction:
    def test_graph_covers_members(self, group):
        assert sorted(graph_of(group).nodes) == group.members

    def test_graph_connected(self, group):
        assert nx.is_connected(graph_of(group))

    def test_duplicate_members_rejected(self, rng):
        population = PeerPopulation(10)
        with pytest.raises(ParameterError):
            ReplicaNetwork(population, [1, 1, 2], rng, MessageMetrics())

    def test_empty_group_rejected(self, rng):
        with pytest.raises(ParameterError):
            ReplicaNetwork(PeerPopulation(10), [], rng, MessageMetrics())

    def test_singleton_group(self, rng):
        group = ReplicaNetwork(
            PeerPopulation(10), [3], rng, MessageMetrics()
        )
        hits, messages = group.flood(3)
        assert hits == (3,)
        assert messages == 0

    def test_tiny_group_falls_back_to_cycle(self, rng):
        group = ReplicaNetwork(
            PeerPopulation(10), [1, 2, 3], rng, MessageMetrics(), degree=5
        )
        assert nx.is_connected(graph_of(group))


class TestFlood:
    def test_reaches_all_online_members(self, group):
        hits, _ = group.flood(group.members[0])
        assert sorted(hits) == group.members

    def test_reaches_each_replica_once_origin_first(self, group):
        # A caller scans the reach order for its first answer.
        origin = group.members[4]
        reached, _ = group.flood(origin)
        assert reached[0] == origin
        assert len(set(reached)) == len(reached)

    def test_skips_offline_members(self, group):
        victim = group.members[5]
        group.population.set_online(victim, False)
        hits, _ = group.flood(group.members[0])
        assert victim not in hits

    def test_flood_cost_near_repl_dup2(self, group):
        # Eq. 16's surcharge is repl * dup2; a degree-3 subnetwork floods
        # at dup2 ~= 2 (one message per edge, some duplicates).
        _, messages = group.flood(group.members[0])
        repl = len(group.members)
        assert repl <= messages <= 3 * repl

    def test_flood_counts_in_replica_category(self, group):
        before = group.metrics.total(MessageCategory.REPLICA_FLOOD)
        _, messages = group.flood(group.members[0])
        after = group.metrics.total(MessageCategory.REPLICA_FLOOD)
        assert after - before == messages

    def test_flood_from_non_member_rejected(self, group):
        with pytest.raises(ParameterError):
            group.flood(99)

    def test_flood_from_offline_member_rejected(self, group):
        from repro.errors import OfflinePeerError

        group.population.set_online(group.members[0], False)
        with pytest.raises(OfflinePeerError):
            group.flood(group.members[0])

    def test_measured_dup2_close_to_paper(self, group):
        # degree-3 regular graph: 2E/V = 3; the paper assumes 1.8. Same
        # order of magnitude; the exact value is a topology knob.
        online = [m for m in group.members if group.population.is_online(m)]
        rows = group.online_adjacency()
        dup2 = sum(len(rows[member]) for member in online) / len(online)
        assert 1.0 <= dup2 <= 3.5
