"""Differential test: the membership views against the scans they replaced.

ISSUE 19 answers "who is online / how big is its table / who are its
online neighbours" from one view per ``(membership version,
PeerPopulation.liveness_epoch)``. Every body it replaced is kept here
verbatim and driven side by side with the new code through generated
histories of joins, leaves and liveness flips; the two must agree exactly
(``==`` on floats, lists and generator states), not approximately:

* ``ReferenceViews`` — ``DistributedHashTable``'s ``_dirty`` flag,
  ``online_members`` (a fresh sort per call) and ``responsible_for``
  (sorts to test emptiness);
* ``ReferencePGrid._split`` — the recursion without the
  ``prefix -> members`` record, so ``_members_under`` scans every leaf;
* ``reference_build_refs`` — each member's references built after the
  split, per level from the complement prefix sliced off its path, where
  ``_split`` now hands them out as it partitions a node;
* ``reference_run_sweep`` / ``reference_expected_rate`` — one
  ``metrics.count`` per member, ``len`` of a freshly built table;
* ``reference_online_neighbors`` / ``reference_flood`` — the replica
  graph's rows re-sorted and re-filtered per visited replica, the edges
  traversed counted once when the flood ends, as the new code counts
  them (the recorded counts of the ``recorder`` fixture must be ``==``).

Mutations run against the new code, each caught by the test named:

* online view keyed on the liveness epoch alone (stale after a join or
  leave), or on the membership version alone (stale after a liveness
  flip) — ``test_views_equal_reference_scans``;
* table sizes keyed on the membership version alone, or kept in
  descending member order — ``test_sweep_equals_one_count_per_member``;
* a sweep that adds ``per_entry * sum(sizes)`` in one step (pre-summed)
  — the sweep tests (last bits of the category totals);
* ``count_each`` touching the category for an empty sweep — the sweep
  test (``list(totals_by_category())`` order);
* ``_split`` recording ``members[:refs_per_level]``, or the members in
  descending order — ``test_pgrid_members_under``;
* a split's references taken from the member's own child, or as the
  sibling's last ``refs_per_level`` members —
  ``test_pgrid_members_under``, ``test_pgrid_refs_at_scale``;
* replica adjacency rows left unsorted, or not refiltered when the epoch
  moves — ``test_replica_flood_equals_reference``;
* a flood plan surviving a liveness flip, one plan shared by every
  origin, the reach order sorted or without the origin, the edge count
  without the duplicate deliveries —
  ``test_replica_flood_equals_reference``,
  ``test_replica_flood_plan_does_not_outlive_a_flip``,
  ``test_callers_may_mutate_what_they_are_given``; a flood without
  edges creating the ``REPLICA_FLOOD`` key —
  ``test_replica_flood_without_edges_counts_nothing``;
* ``online_members`` handing out the cached container itself —
  ``test_callers_may_mutate_what_they_are_given``
  (``fastsim/compare.py`` keeps the list);
* a no-op ``set_online`` bumping the epoch — the views test (the view
  object must survive it).
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dht import PGridDht
from repro.dht.maintenance import RoutingMaintenance
from repro.errors import OfflinePeerError, ParameterError, RoutingError
from repro.net.node import PeerId, PeerPopulation, dht_id_for
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.metrics import MessageCategory, MessageMetrics


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
class ReferenceViews:
    """``DistributedHashTable`` membership bookkeeping as it was."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dirty = False

    def online_members(self) -> list[PeerId]:
        """Members currently online, ascending by peer id."""
        return sorted(
            m for m in self._members if self.population.is_online(m)
        )

    def join(self, peer_id: PeerId) -> None:
        self.population.check(peer_id)
        if peer_id in self._members:
            return
        self._members[peer_id] = dht_id_for(peer_id)
        self.metrics.count(MessageCategory.MEMBERSHIP)
        self._dirty = True

    def leave(self, peer_id: PeerId) -> None:
        if peer_id not in self._members:
            return
        del self._members[peer_id]
        self.metrics.count(MessageCategory.MEMBERSHIP)
        self._dirty = True

    def _ensure_routing(self) -> None:
        if self._dirty:
            self._rebuild()
            self._dirty = False

    def responsible_for(self, key: str) -> PeerId:
        self._ensure_routing()
        online = self.online_members()
        if not online:
            raise RoutingError("DHT has no online members")
        return self._responsible(self.keyspace.hash_key(key))


def leave(dht, peer_id: PeerId) -> None:
    """Drop ``peer_id`` from the member set, bumping the membership
    version like a join (a reference side leaves its own way). No
    experiment shrinks the member set, so ``PGridDht`` has no ``leave``;
    the histories here still do, to exercise rebuilds that shrink it."""
    if isinstance(dht, ReferenceViews):
        dht.leave(peer_id)
    elif peer_id in dht._members:
        del dht._members[peer_id]
        dht.metrics.count(MessageCategory.MEMBERSHIP)
        dht._membership_version += 1


def reference_build_refs(self: PGridDht, peer: PeerId, path: str):
    """References to the complement subtree at every path level."""
    refs: dict[int, tuple[PeerId, ...]] = {}
    for level in range(len(path)):
        complement = path[:level] + ("1" if path[level] == "0" else "0")
        candidates = self._members_under(complement)
        if candidates:
            refs[level] = candidates[: self.refs_per_level]
    return refs


class ReferencePGrid(ReferenceViews, PGridDht):
    def _rebuild(self) -> None:
        """The trie, then every member's references from its path."""
        super()._rebuild()
        self._refs = {
            peer: reference_build_refs(self, peer, path)
            for peer, path in self._paths.items()
        }

    def _split(self, members: list[PeerId], prefix: str) -> None:
        """Recursively partition members on the next identifier bit."""
        if len(members) <= 1 or len(prefix) >= self.keyspace.bits:
            for peer in members:
                self._paths[peer] = prefix
            self._leaf_members[prefix] = list(members)
            return
        zeros: list[PeerId] = []
        ones: list[PeerId] = []
        position = len(prefix)
        for peer in members:
            bit = self.keyspace.digit(dht_id_for(peer), position)
            (ones if bit else zeros).append(peer)
        if not zeros or not ones:
            for peer in members:
                self._paths[peer] = prefix
            self._leaf_members[prefix] = list(members)
            return
        self._split(zeros, prefix + "0")
        self._split(ones, prefix + "1")


#: The new code and its reference, in that order.
SIDES = (PGridDht, ReferencePGrid)


def reference_run_sweep(self: RoutingMaintenance) -> None:
    """One maintenance sweep (verbatim but for the ``probes_sent`` and
    ``sweeps`` counters and the return of the charge, which repeated the
    MAINTENANCE total and are gone)."""
    for member in self.dht.online_members():
        table = self.dht.routing_table(member)
        if not table:
            continue
        messages = self.env * len(table)
        self.dht.metrics.count(MessageCategory.MAINTENANCE, messages)


def reference_expected_rate(self: RoutingMaintenance) -> float:
    total_entries = sum(
        len(self.dht.routing_table(m)) for m in self.dht.online_members()
    )
    return self.env * total_entries


def reference_online_neighbors(self: ReplicaNetwork, member: PeerId):
    return [
        n for n in sorted(self._adjacency[member])
        if self.population.is_online(n)
    ]


def reference_flood(self: ReplicaNetwork, origin, predicate=None):
    if origin not in self._adjacency:
        raise ParameterError(f"peer {origin} is not in this replica group")
    self.population.require_online(origin)
    predicate = predicate or (lambda _: True)

    hits: list[PeerId] = []
    if predicate(origin):
        hits.append(origin)
    seen: set[PeerId] = {origin}
    messages = 0
    frontier: deque[tuple[PeerId, PeerId | None]] = deque([(origin, None)])
    while frontier:
        peer, came_from = frontier.popleft()
        for neighbor in reference_online_neighbors(self, peer):
            if neighbor == came_from:
                continue
            messages += 1
            if neighbor in seen:
                continue
            seen.add(neighbor)
            if predicate(neighbor):
                hits.append(neighbor)
            frontier.append((neighbor, peer))
    self.metrics.count(MessageCategory.REPLICA_FLOOD, messages)
    return hits, messages


# ----------------------------------------------------------------------
# Generated histories
# ----------------------------------------------------------------------
KEYS = tuple(f"key-{i:03d}" for i in range(8))
MAX_PEERS = 20

peer_st = st.integers(0, MAX_PEERS - 1)
op_st = st.one_of(
    st.tuples(st.just("join"), peer_st),
    st.tuples(st.just("leave"), peer_st),
    st.tuples(st.just("flip"), peer_st, st.booleans()),
    st.tuples(st.just("lookup"), peer_st, st.sampled_from(KEYS)),
    st.just(("sweep",)),
    st.just(("totals",)),
    st.just(("reset",)),
    st.just(("read",)),
)


@dataclasses.dataclass(frozen=True)
class History:
    backend_kwargs: tuple
    num_peers: int
    members: frozenset
    offline: frozenset
    ops: tuple
    env: float

    def build(self, reference: bool, population: PeerPopulation, recorder):
        """One DHT + maintenance over ``population``, with its own
        metrics and, as ``counted``, what they recorded."""
        cls = SIDES[1 if reference else 0]
        dht = cls(
            population, MessageMetrics(), **dict(self.backend_kwargs)
        )
        dht.counted = recorder(dht.metrics).calls
        dht.join_all(sorted(self.members))
        return dht, RoutingMaintenance(dht, self.env)


@st.composite
def histories(draw):
    kwargs = {"refs_per_level": draw(st.integers(1, 3))}
    num_peers = draw(st.integers(2, MAX_PEERS))
    ids = st.integers(0, num_peers - 1)
    ops = tuple(
        op for op in draw(st.lists(op_st, max_size=14))
        if len(op) == 1 or op[1] < num_peers
    )
    return History(
        backend_kwargs=tuple(kwargs.items()),
        num_peers=num_peers,
        members=frozenset(draw(st.sets(ids, min_size=1))),
        offline=frozenset(draw(st.sets(ids, max_size=num_peers // 2))),
        ops=ops,
        # 1/14 is the paper's env.
        env=draw(st.sampled_from([1 / 14, 0.3, 0.9])),
    )


def _outcome(call, *args):
    try:
        return call(*args)
    except RoutingError as error:
        return type(error), str(error)


def _replay(history: History, check, recorder) -> None:
    """Drive the new code and the reference through one history on a
    shared population; ``check`` runs after the build and after each op."""
    population = PeerPopulation(history.num_peers)
    for peer in history.offline:
        population.set_online(peer, False)
    new = history.build(False, population, recorder)
    old = history.build(True, population, recorder)
    check(new, old, population)
    for op in history.ops:
        name = op[0]
        if name == "join":
            for dht, _ in (new, old):
                dht.join(op[1])
        elif name == "leave":
            for dht, _ in (new, old):
                leave(dht, op[1])
        elif name == "flip":
            peer, online = op[1], op[2]
            noop = population.is_online(peer) == online
            epoch, view = population.liveness_epoch, new[0].online_view()
            population.set_online(peer, online)
            if noop:
                assert population.liveness_epoch == epoch
                assert new[0].online_view() is view
        elif name == "lookup":
            origin, key = op[1], op[2]
            if origin in new[0]._members and population.is_online(origin):
                got, want = new[0].lookup(origin, key), old[0].lookup(origin, key)
                assert got == want
        elif name == "sweep":
            new[1].run_sweep()
            reference_run_sweep(old[1])
        elif name == "totals":
            # Order included: it is the summation order of ``total()``.
            got = new[0].metrics.totals_by_category()
            want = old[0].metrics.totals_by_category()
            assert list(got.items()) == list(want.items())
        elif name == "reset":
            for dht, _ in (new, old):
                dht.metrics.reset()
        elif name == "read":
            # ``total(category)`` inserts the category on read.
            for dht, _ in (new, old):
                dht.metrics.total(MessageCategory.MAINTENANCE)
        check(new, old, population)


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def _check_views(new, old, population) -> None:
    dht, ref = new[0], old[0]
    assert dht._members == ref._members
    online = dht.online_members()
    assert type(online) is list
    assert online == ref.online_members()
    assert list(dht.online_view()) == online
    assert dht.online_view() is dht.online_view()  # one sort per view key
    for key in KEYS:
        assert _outcome(dht.responsible_for, key) == _outcome(
            ref.responsible_for, key
        )
    for member in sorted(dht._members):
        assert dht.routing_table(member) == ref.routing_table(member)


@given(histories())
@settings(max_examples=120, deadline=None)
def test_views_equal_reference_scans(recorder, history):
    _replay(history, _check_views, recorder)


def test_callers_may_mutate_what_they_are_given():
    population = PeerPopulation(12)
    dht = PGridDht(population, MessageMetrics())
    dht.join_all(range(10))
    taken = dht.online_members()
    taken.remove(3)
    taken.append(99)
    assert dht.online_members() == list(range(10))

    group = ReplicaNetwork(
        population, list(range(8)), np.random.default_rng(5),
        MessageMetrics(), degree=3,
    )
    reached, messages = group.flood(2)
    assert (list(reached), messages) == reference_flood(group, 2)


# ----------------------------------------------------------------------
# Maintenance
# ----------------------------------------------------------------------
def _check_sweep_state(new, old, population) -> None:
    (dht, maintenance), (ref, reference) = new, old
    metrics, ref_metrics = dht.metrics, ref.metrics
    assert maintenance.expected_rate() == reference_expected_rate(reference)
    # Order included: it is the summation order of ``total()``.
    assert list(metrics.totals_by_category().items()) == list(
        ref_metrics.totals_by_category().items()
    )
    assert metrics.total() == ref_metrics.total()
    assert dht.counted == ref.counted


@given(histories())
@settings(max_examples=150, deadline=None)
def test_sweep_equals_one_count_per_member(recorder, history):
    _replay(history, _check_sweep_state, recorder)


def test_sweep_accumulates_member_by_member_at_scale():
    """Float accumulation order at the size the benchmark runs: 300
    members, 150 sweeps, a liveness change in between."""
    population = PeerPopulation(400)
    sides = []
    for cls in SIDES:
        dht = cls(population, MessageMetrics())
        dht.join_all(range(0, 400, 4))
        dht.join_all(range(1, 400, 2))
        sides.append((dht, RoutingMaintenance(dht)))
    (dht, maintenance), (ref, reference) = sides
    for sweep in range(150):
        if sweep == 70:
            for peer in range(0, 400, 7):
                population.set_online(peer, False)
        maintenance.run_sweep()
        reference_run_sweep(reference)
        assert dht.metrics.total(MessageCategory.MAINTENANCE) == (
            ref.metrics.total(MessageCategory.MAINTENANCE)
        )
    # The guard against the tempting rewrite: one multiplication is not
    # the same float as three hundred additions.
    sizes = [len(dht.routing_table(m)) for m in dht.online_members()]
    one_sweep = 0.0
    for size in sizes:
        one_sweep += (1 / 14) * size
    assert one_sweep != (1 / 14) * sum(sizes)


def test_message_category_keys_survive_copies():
    """Categories hash by identity; every copy must be the member."""
    for category in MessageCategory:
        assert pickle.loads(pickle.dumps(category)) is category
        assert MessageCategory(category.value) is category
    metrics = MessageMetrics()
    metrics.count(MessageCategory.UPDATE, 2.0)
    clone = pickle.loads(pickle.dumps(metrics.totals_by_category()))
    assert clone == {MessageCategory.UPDATE: 2.0}
    assert clone[MessageCategory.UPDATE] == 2.0


# ----------------------------------------------------------------------
# P-Grid prefixes
# ----------------------------------------------------------------------
def _flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def _asked_prefixes(dht: PGridDht) -> set[str]:
    """Every trie node, below-leaf prefixes, and the complement prefixes
    ``_build_refs``, ``_responsible`` and ``_next_hop`` form."""
    prefixes = {""}
    for leaf in dht._leaf_members:
        for depth in range(len(leaf) + 1):
            node = leaf[:depth]
            prefixes.add(node)
            if node:
                prefixes.add(node[:-1] + _flip(node[-1]))
        for tail in ("0", "1", "01", "110"):
            prefixes.add(leaf + tail)  # deeper than the leaf
    for path in dht._paths.values():
        for level in range(len(path)):
            # ``_next_hop``: own path up to the mismatch + the target's bit
            prefixes.add(path[:level] + _flip(path[level]))
    return prefixes


def _check_members_under(new, old, population) -> None:
    dht, ref = new[0], old[0]
    dht._ensure_routing()
    ref._ensure_routing()
    assert dht._paths == ref._paths
    assert dht._leaf_members == ref._leaf_members
    assert dht._refs == ref._refs
    for prefix in sorted(_asked_prefixes(ref)):
        got = dht._members_under(prefix)
        assert type(got) is tuple
        assert got == ref._members_under(prefix), prefix


@given(histories())
@settings(max_examples=120, deadline=None)
def test_pgrid_members_under(recorder, history):
    _replay(history, _check_members_under, recorder)


@pytest.mark.parametrize("refs_per_level", (1, 2, 3))
def test_pgrid_refs_at_scale(refs_per_level):
    """A 1,313-member trie, grown in three batches of joins: after each
    rebuild every member's references are the replaced loop's."""
    population = PeerPopulation(1500)
    sides = [
        cls(population, MessageMetrics(), refs_per_level=refs_per_level)
        for cls in SIDES
    ]
    for batch in (range(0, 1500, 2), range(1, 1500, 4), range(3, 1500, 8)):
        for dht in sides:
            dht.join_all(batch)
            dht._ensure_routing()
        dht, ref = sides
        assert dht._refs == ref._refs
    assert dht.size > 1000


def test_pgrid_lopsided_split_and_buckets():
    """A trie where one side of a split is empty (the node stays a leaf
    with more than one member) next to ordinary one-member buckets."""
    population = PeerPopulation(64)
    sides = []
    for cls in SIDES:
        dht = cls(population, MessageMetrics())
        dht.join_all(range(0, 64, 3))
        sides.append((dht, None))
    _check_members_under(*sides, population)
    # Two members whose ids share their first bit: lopsided at the root.
    first_bits = {
        p: dht_id_for(p) >> 159 for p in range(64)
    }
    pair = [p for p, bit in first_bits.items() if bit == 0][:2]
    sides = []
    for cls in SIDES:
        dht = cls(population, MessageMetrics())
        dht.join_all(pair)
        sides.append((dht, None))
    _check_members_under(*sides, population)
    assert sides[0][0]._leaf_members == {"": pair}


# ----------------------------------------------------------------------
# Replica subnetworks
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ReplicaWorld:
    num_peers: int
    members: tuple
    degree: int
    graph_seed: int
    #: per epoch: (peers to flip, predicate set)
    epochs: tuple

    def build(self, population: PeerPopulation, recorder) -> ReplicaNetwork:
        """The group, with what its metrics recorded as ``counted``."""
        network = ReplicaNetwork(
            population,
            list(self.members),
            np.random.default_rng(self.graph_seed),
            MessageMetrics(),
            degree=self.degree,
        )
        network.counted = recorder(network.metrics).calls
        return network


@st.composite
def replica_worlds(draw):
    num_peers = draw(st.integers(1, 16))
    ids = st.integers(0, num_peers - 1)
    members = draw(st.lists(ids, min_size=1, unique=True))
    epoch = st.tuples(
        st.lists(ids, max_size=4),
        st.one_of(st.none(), st.frozensets(ids)),
    )
    return ReplicaWorld(
        num_peers=num_peers,
        members=tuple(members),
        degree=draw(st.integers(1, 4)),
        graph_seed=draw(st.integers(0, 2**16)),
        epochs=tuple(draw(st.lists(epoch, min_size=1, max_size=5))),
    )


@given(replica_worlds())
@settings(max_examples=150, deadline=None)
def test_replica_flood_equals_reference(recorder, world):
    population = PeerPopulation(world.num_peers)
    new = world.build(population, recorder)
    old = world.build(population, recorder)
    assert new._adjacency == old._adjacency
    for flips, holders in world.epochs:
        for peer in flips:
            population.set_online(peer, not population.is_online(peer))
        predicate = None if holders is None else holders.__contains__
        # Twice over the members: the second flood from an origin finds
        # the plan its first one left, under the other
        # predicate; the next epoch's finds it stale.
        for predicate in (predicate, None):
            for member in world.members:
                got = list(new.online_adjacency()[member])
                assert got == reference_online_neighbors(old, member)
                if not population.is_online(member):
                    continue
                # The predicate is the caller's now: asked of the
                # reach order, it picks the hits the old flood returned.
                reached, messages = new.flood(member)
                hits = list(reached) if predicate is None else [
                    peer for peer in reached if predicate(peer)
                ]
                assert (hits, messages) == reference_flood(
                    old, member, predicate
                )
        assert new.counted == old.counted
        # Key order included; a flood that traverses no edge (a lone or
        # cut-off origin) must not create the category.
        assert list(new.metrics.totals_by_category().items()) == list(
            old.metrics.totals_by_category().items()
        )


def test_replica_flood_plan_does_not_outlive_a_flip(recorder):
    """Two floods from one origin with a liveness flip in between, then
    two more with it undone: reach order and edges follow every time."""
    population = PeerPopulation(12)
    world = ReplicaWorld(
        num_peers=12, members=tuple(range(12)), degree=3, graph_seed=4,
        epochs=(),
    )
    new, old = world.build(population, recorder), world.build(population, recorder)
    origin = 0
    neighbor = new.online_adjacency()[origin][0]
    for online in (True, False, False, True, True):
        population.set_online(neighbor, online)
        reached, messages = new.flood(origin)
        got = (list(reached), messages)
        assert got == reference_flood(old, origin)
        assert (neighbor in got[0]) == online
        assert new.counted == old.counted
    assert new.metrics.totals_by_category() == (
        old.metrics.totals_by_category()
    )


def test_replica_flood_without_edges_counts_nothing():
    population = PeerPopulation(4)
    lone = ReplicaNetwork(
        population, [2], np.random.default_rng(0), MessageMetrics()
    )
    assert lone.flood(2) == ((2,), 0)
    assert lone.metrics.totals_by_category() == {}


def test_replica_flood_rejects_strangers_and_offline_origins():
    population = PeerPopulation(6)
    group = ReplicaNetwork(
        population, [0, 1, 2, 3], np.random.default_rng(1),
        MessageMetrics(), degree=2,
    )
    with pytest.raises(ParameterError):
        group.flood(5)
    population.set_online(0, False)
    with pytest.raises(OfflinePeerError):
        group.flood(0)
