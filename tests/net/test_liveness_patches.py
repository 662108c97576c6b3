"""The views a liveness flip patches, against the same views built from
scratch.

``PeerPopulation`` logs the peer of every flip; each view derived from the
online set patches itself forward from that log instead of rebuilding on
every epoch: the overlay recomputes the rows of the flipped peers'
neighbours, a replica group keeps its rows and flood plans unless one of
its members flipped, and P-Grid's ``view_key`` moves only on a member's
flip (the online view, the owner and next-hop memos and maintenance's
table sizes are keyed on it). A view further behind than the log reaches
rebuilds in full.

``test_patched_views_equal_views_built_from_scratch`` drives one substrate
through generated flip sequences — no-op flips, a peer flipping twice
between two reads, reads of some views and not others, bursts of more
flips than there are peers — and after every read holds each view it read
``==`` to one built from nothing. Mutations run against the new code,
each caught by the test named:

* patching only the flipped peer's own row, not its neighbours' —
  ``test_patched_views_equal_views_built_from_scratch``;
* patching a row once per flip, without deduplication —
  ``test_a_row_is_patched_once_however_often_its_neighbours_flipped``;
* ignoring a member's flip in ``view_key`` or in a replica group — the
  property test, ``test_a_member_flip_moves_the_view_key`` and
  ``test_a_group_keeps_its_plans_until_a_member_flips``.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dht.maintenance import RoutingMaintenance
from repro.dht.pgrid import PGridDht
from repro.errors import RoutingError
from repro.net.node import PeerPopulation
from repro.net.topology import GnutellaTopology
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.metrics import MessageMetrics

KEYS = tuple(f"key-{i:03d}" for i in range(8))

#: Bits of a ``read`` step's mask: which views it reads.
OVERLAY, GROUPS, ONLINE_VIEW, TABLE_SIZES, ROUTES = (1 << i for i in range(5))


class World:
    """One population, overlay, P-Grid DHT with maintenance and replica
    groups over the DHT's members."""

    def __init__(self, num_peers, degree, members, group_size, seed):
        self.population = PeerPopulation(num_peers)
        rng = np.random.default_rng(seed)
        self.topology = GnutellaTopology(self.population, degree, rng)
        self.members = sorted(members)
        self.dht = PGridDht(self.population, MessageMetrics())
        self.dht.join_all(self.members)
        self.maintenance = RoutingMaintenance(self.dht)
        self.groups = [
            ReplicaNetwork(
                self.population, self.members[i : i + group_size], rng,
                MessageMetrics(), degree=2,
            )
            for i in range(0, len(self.members), group_size)
        ]

    def online(self, peers):
        return [p for p in peers if self.population.is_online(p)]

    # What each view holds, computed from nothing.
    def scratch_rows(self):
        return [tuple(self.online(row)) for row in self.topology._adjacency]

    def scratch_online_view(self):
        return tuple(self.online(self.members))

    def scratch_table_sizes(self):
        tables = map(self.dht.routing_table, self.scratch_online_view())
        return [len(table) for table in tables if table]

    def scratch_dht(self):
        dht = PGridDht(self.population, MessageMetrics())
        dht.join_all(self.members)
        return dht

    def check(self, mask):
        """Each view ``mask`` selects, read and compared with scratch."""
        if mask & OVERLAY:
            assert self.topology.online_adjacency() == self.scratch_rows()
        if mask & GROUPS:
            for group in self.groups:
                twin = copy.copy(group)
                twin._online_epoch = -1
                twin._online_adjacency, twin._flood_plans = {}, {}
                assert group.online_adjacency() == {
                    member: tuple(self.online(row))
                    for member, row in group._adjacency.items()
                }
                for member in self.online(group.members):
                    assert group._flood_plan(member) == twin._flood_plan(
                        member
                    )
        if mask & ONLINE_VIEW:
            assert self.dht.online_view() == self.scratch_online_view()
        if mask & TABLE_SIZES:
            sizes = self.scratch_table_sizes()
            env = self.maintenance.env
            assert self.maintenance._view() == (
                tuple(sizes), tuple(env * size for size in sizes)
            )
        if mask & ROUTES:
            scratch = self.scratch_dht()
            online = self.scratch_online_view()
            for origin in sorted({online[0], online[-1]} if online else ()):
                for key in KEYS:
                    assert route(self.dht, origin, key) == route(
                        scratch, origin, key
                    )


def route(dht, origin, key):
    try:
        found = dht.lookup(origin, key)
    except RoutingError as error:
        return str(error)
    return found.responsible, found.messages


def apply(world, step):
    population = world.population
    name = step[0]
    if name == "set":
        population.set_online(step[1], step[2])
    elif name == "noop":
        population.set_online(step[1], population.is_online(step[1]))
    elif name == "twice":
        for _ in range(2):
            population.set_online(step[1], not population.is_online(step[1]))
    elif name == "burst":
        # More flips than there are peers: past what the log keeps.
        size = len(population)
        for i in range(size + 1 + step[2]):
            peer = (step[1] + i) % size
            population.set_online(peer, not population.is_online(peer))
    else:
        world.check(step[1])


@st.composite
def worlds(draw):
    num_peers = draw(st.integers(3, 24))
    degree = draw(st.sampled_from(
        [d for d in (1, 2, 3) if d < num_peers and num_peers * d % 2 == 0]
    ))
    peer = st.integers(0, num_peers - 1)
    members = draw(st.sets(peer, min_size=2, max_size=num_peers))
    offline = draw(st.sets(peer, max_size=num_peers // 2))
    step = st.one_of(
        st.tuples(st.just("set"), peer, st.booleans()),
        st.tuples(st.just("noop"), peer),
        st.tuples(st.just("twice"), peer),
        st.tuples(st.just("burst"), peer, st.integers(0, num_peers)),
        st.tuples(st.just("read"), st.integers(1, 31)),
        st.tuples(st.just("read"), st.just(31)),
    )
    world = World(
        num_peers, degree, members, draw(st.integers(2, 5)),
        draw(st.integers(0, 2**16)),
    )
    for peer_id in offline:
        world.population.set_online(peer_id, False)
    return world, draw(st.lists(step, max_size=30))


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_patched_views_equal_views_built_from_scratch(case):
    world, steps = case
    world.check(31)
    for step in steps:
        apply(world, step)
    world.check(31)


# ----------------------------------------------------------------------
# The flip log
# ----------------------------------------------------------------------
def test_the_log_lists_each_flip_and_forgets_past_the_population_size():
    population = PeerPopulation(3)
    start = population.liveness_epoch
    population.set_online(1, False)
    population.set_online(1, False)  # no-op: not a flip
    population.set_online(2, False)
    population.set_online(1, True)
    assert population.flipped_since(start) == [1, 2, 1]
    assert population.flipped_since(start + 2) == [1]
    assert population.flipped_since(population.liveness_epoch) == []
    assert population.flipped_since(-1) is None
    assert population.any_flipped_since(start, {2, 0})
    assert not population.any_flipped_since(start + 2, {2, 0})
    population.set_online(0, False)  # the fourth flip of three peers
    assert population.flipped_since(start) is None
    assert population.any_flipped_since(start, set())  # cannot tell
    assert population.flipped_since(start + 1) == [0, 1, 2]


# ----------------------------------------------------------------------
# What a flip invalidates
# ----------------------------------------------------------------------
def test_a_member_flip_moves_the_view_key():
    world = World(12, 2, [0, 3, 5, 8], 2, seed=1)
    dht = world.dht
    key, view = dht.view_key, dht.online_view()
    world.population.set_online(1, False)  # not a member
    world.population.set_online(7, False)
    assert dht.view_key == key
    assert dht.online_view() is view
    world.population.set_online(5, False)
    assert dht.view_key != key
    assert dht.online_view() == (0, 3, 8)
    key = dht.view_key
    world.population.set_online(5, True)  # back: a flip all the same
    assert dht.view_key != key


def test_a_group_keeps_its_plans_until_a_member_flips(telemetry):
    world = World(12, 2, [0, 3, 5, 8], 4, seed=2)
    (group,) = world.groups
    rows, plan = group.online_adjacency(), group._flood_plan(0)
    world.population.set_online(1, False)  # not a member
    assert group.online_adjacency() is rows
    assert group._flood_plan(0) is plan
    world.population.set_online(3, False)
    assert 3 not in group.online_adjacency()[0]
    assert telemetry.counters["replica.plans.rebuild"] == 2


def test_a_row_is_patched_once_however_often_its_neighbours_flipped(
    telemetry,
):
    world = World(16, 3, [0, 1], 2, seed=3)
    topology, population = world.topology, world.population
    topology.online_adjacency()
    assert telemetry.counters["overlay.rows.rebuild"] == 1
    peer = 4
    neighbour = topology._adjacency[peer][0]
    second = next(n for n in topology._adjacency[neighbour] if n != peer)
    for _ in range(3):  # off, on, off
        population.set_online(peer, not population.is_online(peer))
    population.set_online(second, False)  # shares ``neighbour``'s row
    rows = topology.online_adjacency()
    stale = set(topology._adjacency[peer]) | set(topology._adjacency[second])
    assert telemetry.counters["overlay.rows.patched"] == len(stale)
    assert telemetry.counters["overlay.rows.rebuild"] == 1
    assert rows == world.scratch_rows()
