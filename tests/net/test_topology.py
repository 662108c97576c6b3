"""Tests for the Gnutella-like topology."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.net.node import PeerPopulation
from repro.net.topology import GnutellaTopology, gnutella_rows


def build_gnutella_graph(num_peers, degree, rng):
    """:func:`gnutella_rows` as a ``networkx`` graph."""
    return nx.from_dict_of_lists(
        dict(enumerate(gnutella_rows(num_peers, degree, rng)))
    )


def online_duplication_factor(topology):
    """``2E / V`` over the online overlay: a full flood's per-peer message
    overhead in the worst case; 0 with nobody online."""
    online = topology.population.online_ids
    if not online:
        return 0.0
    rows = topology.online_adjacency()
    return sum(len(rows[peer]) for peer in online) / len(online)


class TestBuildGraph:
    def test_regular_graph_has_exact_degree(self, rng):
        graph = build_gnutella_graph(50, 4, rng)
        assert all(d == 4 for _, d in graph.degree())

    def test_graph_is_connected(self, rng):
        graph = build_gnutella_graph(100, 3, rng)
        assert nx.is_connected(graph)

    def test_reproducible_given_rng_state(self):
        g1 = build_gnutella_graph(40, 4, np.random.Generator(np.random.PCG64(1)))
        g2 = build_gnutella_graph(40, 4, np.random.Generator(np.random.PCG64(1)))
        assert sorted(g1.edges) == sorted(g2.edges)

    @pytest.mark.parametrize(
        "num_peers,degree",
        [(1, 1), (10, 0), (10, 10), (10, 12)],
    )
    def test_infeasible_parameters_rejected(self, rng, num_peers, degree):
        with pytest.raises(TopologyError):
            build_gnutella_graph(num_peers, degree, rng)

    def test_odd_regular_product_rejected(self, rng):
        with pytest.raises(TopologyError):
            build_gnutella_graph(5, 3, rng)  # 15 stubs: impossible


class TestGnutellaTopology:
    def test_neighbors_stable_regardless_of_liveness(self, population, rng):
        topo = GnutellaTopology(population, 4, rng)
        before = list(topo._adjacency[0])
        population.set_online(before[0], False)
        assert list(topo._adjacency[0]) == before

    def test_online_neighbors_filter(self, population, rng):
        topo = GnutellaTopology(population, 4, rng)
        victim = list(topo._adjacency[0])[0]
        population.set_online(victim, False)
        assert victim not in topo.online_adjacency()[0]
        assert len(topo.online_adjacency()[0]) == 3

    def test_online_adjacency_rebuilt_only_when_the_epoch_moved(
        self, population, rng
    ):
        topo = GnutellaTopology(population, 4, rng)
        table = topo.online_adjacency()
        assert [list(row) for row in table] == [
            list(topo._adjacency[p]) for p in range(len(population))
        ]
        victim = list(topo._adjacency[0])[0]
        population.set_online(victim, True)  # no-op: table kept
        assert topo.online_adjacency() is table
        population.set_online(victim, False)
        rebuilt = topo.online_adjacency()
        assert rebuilt is not table
        assert all(victim not in row for row in rebuilt)
        assert rebuilt[victim] == table[victim]  # own liveness is not a filter
        population.set_online(victim, True)
        assert topo.online_adjacency() == table

    def test_duplication_factor_matches_degree(self, population, rng):
        topo = GnutellaTopology(population, 4, rng)
        # Regular graph, everyone online: 2E/V = degree.
        assert online_duplication_factor(topo) == pytest.approx(4.0)

    def test_duplication_factor_empty_when_all_offline(self, population, rng):
        topo = GnutellaTopology(population, 4, rng)
        for peer_id in range(len(population)):
            population.set_online(peer_id, False)
        assert online_duplication_factor(topo) == 0.0
