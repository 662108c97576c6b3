"""Property-based tests for replication invariants."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.node import PeerPopulation
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.metrics import MessageMetrics


@given(
    group_size=st.integers(min_value=1, max_value=60),
    degree=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_flood_reaches_every_online_replica(group_size, degree, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    population = PeerPopulation(group_size + 5)
    group = ReplicaNetwork(
        population, list(range(group_size)), rng, MessageMetrics(), degree=degree
    )
    hits, messages = group.flood(0)
    assert sorted(hits) == group.members
    # Flood cost bounded by twice the edge count.
    edges = nx.from_dict_of_lists(group._adjacency).number_of_edges()
    assert messages <= 2 * edges
