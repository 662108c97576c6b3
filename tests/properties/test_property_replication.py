"""Property-based tests for replication invariants."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.messages import MessageLog
from repro.net.node import PeerPopulation
from repro.replication.availability import (
    availability_of,
    replication_for_availability,
)
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.metrics import MessageMetrics


@given(
    target=st.floats(min_value=0.01, max_value=0.999),
    availability=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_planner_minimal_and_sufficient(target, availability):
    r = replication_for_availability(target, availability, max_replication=10**6)
    assert availability_of(r, availability) >= target - 1e-12
    if r > 1:
        assert availability_of(r - 1, availability) < target


@given(replication=st.integers(1, 200), availability=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_availability_monotone_in_replication(replication, availability):
    a1 = availability_of(replication, availability)
    a2 = availability_of(replication + 1, availability)
    assert 0.0 <= a1 <= a2 <= 1.0


@given(
    group_size=st.integers(min_value=1, max_value=60),
    degree=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_flood_reaches_every_online_replica(group_size, degree, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    population = PeerPopulation(group_size + 5)
    log = MessageLog(MessageMetrics())
    group = ReplicaNetwork(population, list(range(group_size)), rng, log, degree=degree)
    hits, messages = group.flood(0)
    assert sorted(hits) == group.members
    # Flood cost bounded by twice the edge count.
    edges = nx.from_dict_of_lists(group._adjacency).number_of_edges()
    assert messages <= 2 * edges
