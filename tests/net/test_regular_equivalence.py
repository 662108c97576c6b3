"""Differential test: the ``networkx``-free graph builders against the
``networkx`` calls they replaced.

ISSUE 21 builds every "random regular graph, bridged" — the Gnutella
overlay, each replica-group subnetwork, the structural flood probe —
from :func:`repro.net.topology.bridged_regular_rows`, a port of
``networkx.random_regular_graph`` plus the bridge-components patch to the
stdlib generator. The three bodies it replaced are kept here verbatim
(``reference_build_gnutella_graph``, less the ``barabasi_albert`` family
the overlay no longer offers, ``reference_replica_graph``,
``reference_structural_flood_cost``) and run against the installed
``networkx``; the new code must agree exactly — neighbour rows in
``networkx``'s own (unsorted) order, floats ``==``, and the numpy stream
that supplies the graph seed left in the same state.

Mutations run against the new code, each caught by the test named:

* rows returned sorted instead of in insertion order — the three
  ``test_port_equals_networkx*`` tests only: both consumers sort, and a
  flood's message total (every reached member's online degree, minus
  one per member for the neighbour it heard from) does not depend on
  who is asked first, so the order is pinned against ``networkx``
  itself and nowhere else;
* ``_suitable`` tidied into "any untried pair" (without the swap that
  rebinds the outer ``s1``) — ``test_port_equals_networkx``: another
  attempt is abandoned, so later shuffles and the graph differ. Rare
  (193 of ~40,000 small cases), hence the two pinned examples;
* components bridged in order of first appearance in the edge set
  instead of by smallest member — ``test_port_equals_networkx`` and
  ``test_bridging_is_exercised``;
* bridge edges added while components are still being discovered
  — the same two (later components merge into earlier ones);
* ``group_rows`` without the odd ``degree * size`` nudge, or drawing a
  seed for the cycle / for a single member —
  ``test_replica_network_equals_old_constructor`` (adjacency, stream
  state), ``test_group_rows_special_cases`` and
  ``test_structural_flood_cost_equals_old_body``;
* ``GnutellaTopology`` / ``ReplicaNetwork`` keeping their rows unsorted
  — the two constructor tests.

Not pinned, for the same reason: the order of a cycle fallback's
two-neighbour rows.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import ParameterError, TopologyError
from repro.fastsim.churncosts import structural_flood_cost
from repro.net.node import PeerPopulation
from repro.net.topology import GnutellaTopology, bridged_regular_rows
from repro.replication.replica_network import ReplicaNetwork, group_rows
from repro.sim.metrics import MessageMetrics


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
def reference_build_gnutella_graph(num_peers, degree, rng):
    if num_peers < 2:
        raise TopologyError(f"need at least 2 peers, got {num_peers}")
    if degree < 1:
        raise TopologyError(f"degree must be >= 1, got {degree}")
    if degree >= num_peers:
        raise TopologyError(
            f"degree ({degree}) must be < num_peers ({num_peers})"
        )
    seed = int(rng.integers(0, 2**31 - 1))
    if (degree * num_peers) % 2 != 0:
        raise TopologyError(
            f"random regular graph needs even degree*num_peers "
            f"(got {degree}*{num_peers})"
        )
    graph = nx.random_regular_graph(degree, num_peers, seed=seed)

    if not nx.is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        for left, right in zip(components, components[1:]):
            graph.add_edge(left[0], right[0])
    return graph


def reference_gnutella_adjacency(num_peers, degree, rng):
    graph = reference_build_gnutella_graph(num_peers, degree, rng)
    return tuple(
        tuple(sorted(graph.neighbors(peer_id))) for peer_id in range(num_peers)
    )


def reference_replica_graph(members, rng, degree):
    n = len(members)
    graph = nx.Graph()
    graph.add_nodes_from(members)
    if n == 1:
        return graph
    d = min(degree, n - 1)
    if (d * n) % 2 != 0:
        # Regular graphs need even degree*size; nudge the degree down.
        d = max(1, d - 1)
    if d * n % 2 != 0 or d >= n:
        # Tiny groups: fall back to a cycle.
        ordered = list(members)
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            if a != b:
                graph.add_edge(a, b)
        return graph
    seed = int(rng.integers(0, 2**31 - 1))
    template = nx.random_regular_graph(d, n, seed=seed)
    if not nx.is_connected(template):
        components = [sorted(c) for c in nx.connected_components(template)]
        for left, right in zip(components, components[1:]):
            template.add_edge(left[0], right[0])
    relabel = dict(enumerate(members))
    return nx.relabel_nodes(template, relabel)


def reference_structural_flood_cost(
    group_size, degree, availability, rng, probes=64
):
    if not 0.0 < availability <= 1.0:
        raise ParameterError(
            f"availability must be in (0, 1], got {availability}"
        )
    if group_size < 1:
        raise ParameterError(f"group_size must be >= 1, got {group_size}")
    if probes < 1:
        raise ParameterError(f"probes must be >= 1, got {probes}")
    if group_size == 1:
        return 0.0

    d = min(degree, group_size - 1)
    if (d * group_size) % 2 != 0:
        d = max(1, d - 1)
    if d * group_size % 2 != 0 or d >= group_size:
        graph = nx.cycle_graph(group_size)
    else:
        graph = nx.random_regular_graph(
            d, group_size, seed=int(rng.integers(0, 2**31 - 1))
        )
        if not nx.is_connected(graph):
            components = [sorted(c) for c in nx.connected_components(graph)]
            for left, right in zip(components, components[1:]):
                graph.add_edge(left[0], right[0])
    adjacency = [list(graph.neighbors(v)) for v in range(group_size)]
    totals = 0.0
    for _ in range(probes):
        online = rng.random(group_size) < availability
        if not online.any():
            continue
        online_members = np.flatnonzero(online)
        origin = int(online_members[int(rng.integers(0, online_members.size))])
        seen = {origin}
        frontier = [(origin, -1)]
        messages = 0
        while frontier:
            member, came_from = frontier.pop()
            for neighbor in adjacency[member]:
                if neighbor == came_from or not online[neighbor]:
                    continue
                messages += 1
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                frontier.append((neighbor, member))
        totals += messages
    return totals / probes


def reference_rows(num_nodes, degree, seed):
    """``networkx``'s own neighbour order, and whether bridging ran."""
    graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
    bridged = not nx.is_connected(graph)
    if bridged:
        components = [sorted(c) for c in nx.connected_components(graph)]
        for left, right in zip(components, components[1:]):
            graph.add_edge(left[0], right[0])
    # Tuples: the port's rows are shared by every caller, so immutable.
    return tuple(
        tuple(graph.neighbors(v)) for v in range(num_nodes)
    ), bridged


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
SEEDS = st.integers(0, 2**31 - 2)
#: Degrees 1 and 2 (perfect matchings, unions of cycles) are almost never
#: connected, so most draws go through the bridge.
DEGREES = st.sampled_from([1, 1, 1, 2, 2, 2, 3, 4, 5])


def generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ----------------------------------------------------------------------
# The port itself
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 60), d=DEGREES, seed=SEEDS)
@example(n=7, d=4, seed=57)  # an attempt only the verbatim ``_suitable`` abandons
@example(n=8, d=3, seed=127)
def test_port_equals_networkx(n, d, seed):
    assume(d < n and (n * d) % 2 == 0)
    rows, _ = reference_rows(n, d, seed)
    assert bridged_regular_rows(n, d, seed) == rows


def test_bridging_is_exercised():
    bridged_cases = 0
    for seed in range(120):
        n = 2 + seed % 29
        for d in (1, 2, 4):
            if d >= n or (n * d) % 2:
                continue
            rows, bridged = reference_rows(n, d, seed)
            assert bridged_regular_rows(n, d, seed) == rows, (n, d, seed)
            bridged_cases += bridged
    assert bridged_cases >= 100


@pytest.mark.parametrize(
    "n,d", [(1000, 4), (400, 4), (50, 3), (64, 3), (5000, 4), (7, 0)]
)
def test_port_equals_networkx_at_substrate_sizes(n, d):
    rows, _ = reference_rows(n, d, seed=2**31 - 2)
    assert bridged_regular_rows(n, d, 2**31 - 2) == rows


@pytest.mark.parametrize("n,d", [(5, 3), (4, 4), (4, 5), (3, -1)])
def test_port_rejects_what_networkx_rejects(n, d):
    with pytest.raises(nx.NetworkXError):
        nx.random_regular_graph(d, n, seed=0)
    with pytest.raises(TopologyError):
        bridged_regular_rows(n, d, 0)


# ----------------------------------------------------------------------
# The three callers
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), degree=DEGREES, seed=SEEDS)
def test_gnutella_topology_equals_old_constructor(n, degree, seed):
    assume(degree < n and (n * degree) % 2 == 0)
    old_rng, new_rng = generator(seed), generator(seed)
    expected = reference_gnutella_adjacency(n, degree, old_rng)
    topology = GnutellaTopology(PeerPopulation(n), degree, new_rng)
    assert topology._adjacency == expected
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(st.integers(0, 79), min_size=1, max_size=30, unique=True),
    degree=st.sampled_from([1, 1, 2, 2, 3, 3, 4, 5]),
    seed=SEEDS,
)
def test_replica_network_equals_old_constructor(members, degree, seed):
    old_rng, new_rng = generator(seed), generator(seed)
    graph = reference_replica_graph(members, old_rng, degree)
    expected = {m: tuple(sorted(graph.neighbors(m))) for m in members}
    group = ReplicaNetwork(
        PeerPopulation(80), members, new_rng, MessageMetrics(),
        degree=degree,
    )
    assert group._adjacency == expected
    assert list(group._adjacency) == members
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize(
    "size,degree,draws",
    [
        (1, 3, False),   # a single member: no graph, no draw
        (2, 3, True),    # degree capped at size - 1
        (3, 1, False),   # degree 1, odd group: the cycle fallback
        (7, 1, False),
        (7, 3, True),    # odd degree*size: nudged down to 2
        (9, 5, True),    # nudged down to 4
        (8, 3, True),
    ],
)
def test_group_rows_special_cases(size, degree, draws):
    members = list(range(100, 100 + size))
    old_rng, new_rng = generator(size * 10 + degree), generator(size * 10 + degree)
    untouched = generator(size * 10 + degree).bit_generator.state
    graph = reference_replica_graph(members, old_rng, degree)
    rows = group_rows(size, degree, new_rng)
    assert [sorted(members[i] for i in row) for row in rows] == [
        sorted(graph.neighbors(m)) for m in members
    ]
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert (new_rng.bit_generator.state != untouched) == draws


@settings(max_examples=200, deadline=None)
@given(
    group_size=st.integers(1, 30),
    degree=st.sampled_from([0, 1, 1, 2, 2, 3, 3, 4, 5]),
    availability=st.sampled_from([0.05, 0.3, 0.5, 0.8, 1.0]),
    probes=st.integers(1, 6),
    seed=SEEDS,
)
def test_structural_flood_cost_equals_old_body(
    group_size, degree, availability, probes, seed
):
    old_rng, new_rng = generator(seed), generator(seed)
    expected = reference_structural_flood_cost(
        group_size, degree, availability, old_rng, probes
    )
    assert structural_flood_cost(
        group_size, degree, availability, new_rng, probes
    ) == expected
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
