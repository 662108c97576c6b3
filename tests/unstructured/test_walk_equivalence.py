"""Differential test: the fast walk loop against the loop it replaced.

``reference_search`` is the pre-optimisation ``RandomWalkSearch.search``
kept verbatim (three call layers and a scalar ``rng.integers`` per hop);
the only edits are that it lists online neighbours by filtering the
configured connections per hop, as the topology did then, instead of
through the adjacency table the fast loop reads, and that it counts its
hops once when it ends, as the fast loop does, instead of one message
per hop. The two must agree exactly, not approximately: same
``WalkResult``, same message totals, the same counts recorded in the same
order (the ``recorder`` fixture), and the walk generator left in the same
state — read through ``walker.rng``, after every search or only after a
run of them (the walker's draw stream persists across searches).

A search trapped in an online component with no replica ends in closed
form. The generated worlds include a two-peer component (no draw), stars
with the origin at the centre or on a leaf (one ``BoundedStream.skip``)
and a 4–5-peer non-star (the bulk pass over chunks of words), and
``test_each_trapped_tail_equals_the_reference`` proves each tail runs by
its ``walk.trapped`` count and its ``walk.run_out`` span, with telemetry
on (the property above runs with it off). ``test_run_out.py`` holds the
bulk pass itself to the move-and-draw loop it replaced, over generated
components, walkers and rejected words. Mutations of
``RandomWalkSearch.search``,
each caught by ``test_fast_walk_equals_reference`` and by the test or
the cases (``[...]``, of ``test_each_trapped_tail_equals_the_reference``)
named:

* the trap check moved above the step's found / all-dead break — an
  isolated origin then takes the tail (``test_an_isolated_origin_is_no_trap``);
* ``ceil`` and ``floor`` swapped in the star's draw count — the generator
  state differs after an odd number of remaining steps
  (``[star-centre-odd]``, ``[star-centre-one-walker]``);
* ``ttl - step + 1`` remaining steps — the message totals differ (every
  case);
* the tail skipped for a key that is not a ``str`` — no ``walk.trapped``
  (``test_a_key_that_is_not_a_str_ends_trapped``);
* the closure test skipping the origin's row — a walker back at the
  star's centre looks trapped before it has seen every leaf
  (``[star-centre-*]``).

The hop loop applies ``BoundedStream``'s reduction inline and checks a
bit of the key's holder mask. Mutations of that, each caught by the test
named:

* the may-be-rejected check dropped in the search loop —
  ``test_a_rejected_word_is_skipped_inline``;
* the words used not handed back to the stream when a search ends —
  ``test_fast_walk_equals_reference``;
* the run-out's chunk not repaid (the stream left lending its words) —
  ``test_each_trapped_tail_equals_the_reference`` (``[small-component]``);
* the key looked up again at every hop's content check —
  ``test_a_raising_key_raises_before_any_hop_or_not_at_all`` (the
  search then raises after hops were taken).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Hashable, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.node import PeerId, PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.random_walk import RandomWalkSearch, WalkResult


def _reference_online_neighbors(overlay, peer_id):
    return [
        n for n in sorted(overlay.topology._adjacency[peer_id])
        if overlay.population.is_online(n)
    ]


def reference_search(self, origin: PeerId, key: Hashable) -> WalkResult:
    self.overlay.population.require_online(origin)

    if self.overlay.peer_has(origin, key):
        return WalkResult(
            key=key,
            found=True,
            value=self.overlay.value_at(origin, key),
            messages=0,
            distinct_peers=1,
            steps=0,
        )

    positions: list[Optional[PeerId]] = [origin] * self.walkers
    visited: set[PeerId] = {origin}
    messages = 0
    found_at: Optional[PeerId] = None

    try:
        for step in range(1, self.ttl + 1):
            any_alive = False
            for i, position in enumerate(positions):
                if position is None:
                    continue
                neighbors = _reference_online_neighbors(self.overlay, position)
                if not neighbors:
                    positions[i] = None  # dead end: walker dies
                    continue
                nxt = neighbors[int(self.rng.integers(0, len(neighbors)))]
                messages += 1
                visited.add(nxt)
                positions[i] = nxt
                any_alive = True
                if self.overlay.peer_has(nxt, key):
                    found_at = nxt
            if found_at is not None or not any_alive:
                return WalkResult(
                    key=key,
                    found=found_at is not None,
                    value=(
                        self.overlay.value_at(found_at, key)
                        if found_at is not None
                        else None
                    ),
                    messages=messages,
                    distinct_peers=len(visited),
                    steps=step,
                )
    finally:
        self.overlay.metrics.count(MessageCategory.UNSTRUCTURED_SEARCH, messages)

    return WalkResult(
        key=key,
        found=False,
        value=None,
        messages=messages,
        distinct_peers=len(visited),
        steps=self.ttl,
    )


# ----------------------------------------------------------------------
# Generated worlds
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class World:
    """Everything needed to build the same overlay and walker twice."""

    num_peers: int
    degree: int
    topology_seed: int
    walk_seed: int
    #: scalar draws taken from the walk stream first; an odd count leaves
    #: PCG64 holding a buffered half-word when the search starts.
    predraws: int
    origin: int
    #: peer ids, or a shape resolved against the built graph in build()
    offline: "frozenset | str"
    holders: "frozenset | str"
    walkers: int
    ttl: int
    #: liveness flips applied between the first and the second search.
    flips: tuple

    def build(self, recorder):
        """The overlay, with what its metrics recorded as ``counted``, and
        the walker."""
        population = PeerPopulation(self.num_peers)
        overlay = UnstructuredOverlay(
            population,
            np.random.Generator(np.random.PCG64(self.topology_seed)),
            degree=self.degree,
            metrics=MessageMetrics(),
        )
        overlay.counted = recorder(overlay.metrics).calls
        offline = self.offline
        if isinstance(offline, str):
            offline = _offline_for(offline, overlay.topology, self.origin)
        for peer_id in offline:
            population.set_online(peer_id, False)
        holders = self.holders
        if holders == "everyone-else":
            holders = frozenset(range(self.num_peers)) - {self.origin}
        for peer_id in holders:
            overlay.add_replicas("k", 1 << peer_id, "value")
        rng = np.random.Generator(np.random.PCG64(self.walk_seed))
        for _ in range(self.predraws):
            rng.integers(0, 3)
        walker = RandomWalkSearch(
            overlay, rng, walkers=self.walkers, ttl=self.ttl
        )
        return overlay, walker


#: Offline sets resolved against the built graph: the origin's
#: neighbours, or everyone but the component named — a pair, a star with
#: the origin at its centre or on a leaf, a 4–5-peer path with its chords.
SHAPES = [
    "isolate-origin", "two-peer-component",
    "star-component", "leaf-of-star", "small-component",
]


def _neighbors(topology, peer):
    """All configured neighbours of ``peer``, regardless of liveness."""
    return list(topology._adjacency[peer])


def _offline_for(shape, topology, origin):
    def neighbors(peer):
        return _neighbors(topology, peer)
    if shape == "isolate-origin":
        return frozenset(neighbors(origin))
    if shape == "two-peer-component":
        component = {origin, neighbors(origin)[0]}
    elif shape == "star-component":
        component = _star(topology, origin)
    elif shape == "leaf-of-star":
        component = _star(topology, neighbors(origin)[0], leaf=origin)
    else:
        assert shape == "small-component"
        component = _path(topology, origin)
    return frozenset(range(len(topology.population))) - component


def _star(topology, centre, leaf=None):
    """``centre`` and up to three of its neighbours (``leaf`` first), no
    two of them adjacent: online alone, a star once it has two leaves."""
    leaves = [] if leaf is None else [leaf]
    for peer in _neighbors(topology, centre):
        if len(leaves) < 3 and peer not in leaves and not (
            set(_neighbors(topology, peer)) & set(leaves)
        ):
            leaves.append(peer)
    return {centre, *leaves}


def _path(topology, origin):
    """Up to five peers along a path from ``origin``: online alone, a
    component that is no star once the path has four peers."""
    path = [origin]
    while len(path) < 5:
        step = [p for p in _neighbors(topology, path[-1]) if p not in path]
        if not step:
            break
        path.append(step[0])
    return set(path)


@st.composite
def worlds(draw) -> World:
    num_peers = draw(st.integers(2, 24))
    degrees = [
        d for d in range(1, min(num_peers, 6)) if (d * num_peers) % 2 == 0
    ]
    degree = draw(st.sampled_from(degrees))
    peer_ids = st.integers(0, num_peers - 1)
    origin = draw(peer_ids)
    offline = draw(
        st.one_of(
            st.frozensets(peer_ids).map(lambda ids: ids - {origin}),
            st.sampled_from(SHAPES),
        )
    )
    holders = draw(
        st.one_of(
            st.just(frozenset()),  # no holder anywhere
            st.just(frozenset({origin})),  # origin holds the key
            # several walkers find it in the same step: last finder wins
            st.just("everyone-else"),
            st.frozensets(peer_ids, min_size=1),
        )
    )
    flips = draw(
        st.lists(st.tuples(peer_ids, st.booleans()), max_size=6).map(
            lambda pairs: tuple(p for p in pairs if p[0] != origin)
        )
    )
    return World(
        num_peers=num_peers,
        degree=degree,
        topology_seed=draw(st.integers(0, 2**16)),
        walk_seed=draw(st.integers(0, 2**16)),
        predraws=draw(st.integers(0, 3)),
        origin=origin,
        offline=offline,
        holders=holders,
        walkers=draw(st.integers(1, 8)),
        ttl=draw(st.integers(1, 300)),
        flips=flips,
    )


def _outcome(search, walker, origin, key):
    """The search's result without its ``key`` field, or what it raised."""
    try:
        result = search(walker, origin, key)
    except Fuse as blown:
        return ("raised", str(blown))
    assert result.key is key
    return tuple(
        getattr(result, field.name)
        for field in dataclasses.fields(result)[1:]
    )


def _observable(overlay, walker, key):
    """Everything a caller can see of the overlay after a search."""
    return {
        # Order included: a category appears when it is first counted.
        "totals": list(overlay.metrics.totals_by_category().items()),
        "counts": list(overlay.counted),
        "rng": walker.rng.bit_generator.state,
    }


def _assert_equivalent(world: World, make_key, recorder) -> None:
    ref_overlay, ref_walker = world.build(recorder)
    new_overlay, new_walker = world.build(recorder)
    ref_key, new_key = make_key(), make_key()
    for flips in ((), world.flips):
        for peer_id, online in flips:
            ref_overlay.population.set_online(peer_id, online)
            new_overlay.population.set_online(peer_id, online)
        expected = _outcome(reference_search, ref_walker, world.origin, ref_key)
        actual = _outcome(RandomWalkSearch.search, new_walker, world.origin, new_key)
        assert actual == expected
        assert _observable(new_overlay, new_walker, new_key) == _observable(
            ref_overlay, ref_walker, ref_key
        )
        # ... and the next consumer of the stream draws the same numbers.
        assert new_walker.rng.integers(0, 2**32) == ref_walker.rng.integers(0, 2**32)


@settings(max_examples=300, deadline=None)
@given(worlds())
def test_fast_walk_equals_reference(recorder, world):
    _assert_equivalent(world, lambda: "k", recorder)


@settings(max_examples=80, deadline=None)
@given(
    worlds(),
    st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23), st.booleans()),
        min_size=2, max_size=12,
    ),
)
def test_a_run_of_searches_with_the_generator_read_only_at_the_end(
    recorder, world, run
):
    """The walker keeps one draw stream across searches, and between
    searches its generator runs ahead of the draws. Nobody looks at it
    here until the run is over — origins and liveness change in between —
    and it must then be where a scalar draw per hop would have left it."""
    ref_overlay, ref_walker = world.build(recorder)
    new_overlay, new_walker = world.build(recorder)
    searched = 0
    for origin, flipped, online in run:
        origin %= world.num_peers
        flipped %= world.num_peers
        for overlay in (ref_overlay, new_overlay):
            overlay.population.set_online(flipped, online)
        if not new_overlay.population.is_online(origin):
            continue
        searched += 1
        expected = _outcome(reference_search, ref_walker, origin, "k")
        assert _outcome(RandomWalkSearch.search, new_walker, origin, "k") == expected
        seen = _observable(new_overlay, ref_walker, "k")  # not new_walker.rng
        assert seen == _observable(ref_overlay, ref_walker, "k")
    assert (
        new_walker.rng.bit_generator.state == ref_walker.rng.bit_generator.state
    )
    assert new_walker.rng.random() == ref_walker.rng.random()


# ----------------------------------------------------------------------
# An exception raised mid-search
# ----------------------------------------------------------------------
class Fuse(Exception):
    pass


class FusedKey:
    """Hashes like ``"k"`` and never equals it; the ``fuse``-th comparison
    raises instead. A lookup in the overlay's per-key records, which hold
    ``"k"``, makes one comparison or more (the dict may re-probe the
    slot)."""

    def __init__(self, fuse: float) -> None:
        self.fuse = fuse
        self.comparisons = 0

    def __hash__(self) -> int:
        return hash("k")

    def __eq__(self, other: object) -> bool:
        self.comparisons += 1
        if self.comparisons >= self.fuse:
            raise Fuse(f"comparison {self.comparisons}")
        return False


def _assert_raises_first_or_equals_reference(
    world: World, fuse: int, recorder
) -> None:
    """The fast search looks the key up before its first hop and never
    again, so a key whose comparison raises either raises there — no hop
    counted, the generator where it was — or the search completes as the
    reference's does for a key that never raises."""
    ref_overlay, ref_walker = world.build(recorder)
    new_overlay, new_walker = world.build(recorder)
    for flips in ((), world.flips):
        for peer_id, online in flips:
            ref_overlay.population.set_online(peer_id, online)
            new_overlay.population.set_online(peer_id, online)
        new_key = FusedKey(fuse)
        before = _observable(new_overlay, new_walker, new_key)
        actual = _outcome(RandomWalkSearch.search, new_walker, world.origin, new_key)
        if actual[0] == "raised":
            assert _observable(new_overlay, new_walker, new_key) == before
            continue
        ref_key = FusedKey(math.inf)
        expected = _outcome(reference_search, ref_walker, world.origin, ref_key)
        assert actual == expected
        assert _observable(new_overlay, new_walker, new_key) == _observable(
            ref_overlay, ref_walker, ref_key
        )
        assert new_walker.rng.integers(0, 2**32) == ref_walker.rng.integers(0, 2**32)


@settings(max_examples=150, deadline=None)
@given(worlds(), st.integers(1, 30))
def test_a_raising_key_raises_before_any_hop_or_not_at_all(recorder, world, fuse):
    _assert_raises_first_or_equals_reference(world, fuse, recorder)


def test_a_raising_key_meets_both_outcomes(recorder):
    """The property above is not vacuous: in this world the first
    comparison raises before any hop, and a fuse the reference's per-hop
    lookups blow mid-walk lets the fast search complete."""
    world = World(
        num_peers=12, degree=3, topology_seed=1,
        walk_seed=2, predraws=1, origin=0, offline=frozenset(),
        holders=frozenset(range(12)), walkers=3, ttl=20, flips=(),
    )
    overlay, walker = world.build(recorder)
    state = walker.rng.bit_generator.state
    with pytest.raises(Fuse):
        walker.search(0, FusedKey(fuse=1))
    assert overlay.metrics.total() == 0 and overlay.counted == []
    assert walker.rng.bit_generator.state == state

    # How many comparisons one lookup makes depends on the process's
    # string-hash seed. The fast search makes two lookups; the reference
    # makes one more per hop, 60 hops here.
    probe = FusedKey(math.inf)
    overlay.content.get(probe)
    fuse = 2 * probe.comparisons + 1
    ref_overlay, ref_walker = world.build(recorder)
    with pytest.raises(Fuse):
        reference_search(ref_walker, 0, FusedKey(fuse))
    assert ref_overlay.metrics.total(MessageCategory.UNSTRUCTURED_SEARCH) > 0
    overlay, walker = world.build(recorder)
    assert not walker.search(0, FusedKey(fuse)).found
    _assert_raises_first_or_equals_reference(world, fuse, recorder)


# ----------------------------------------------------------------------
# A rejected word in the inline draw
# ----------------------------------------------------------------------
class ScriptedWords:
    """Stands in for a Generator: serves a fixed word list (see
    ``tests/sim/test_rng.py``), so a walk meets the one-in-2**32 words
    numpy's reduction rejects."""

    def __init__(self, words):
        self.words = words
        self.position = 0
        self.bit_generator = self

    @property
    def state(self):
        return {"position": self.position}

    @state.setter
    def state(self, value):
        self.position = value["position"]

    def integers(self, low, high, size, dtype):
        served = self.words[self.position:self.position + size]
        self.position += size
        return np.array(served, dtype=np.uint32)


@pytest.mark.parametrize("rejected_at", [0, 5, 63, 64, 200])
def test_a_rejected_word_is_skipped_inline(rejected_at):
    """On a 3-regular overlay every draw is over three neighbours, for
    which numpy rejects only the word 0. A walk served words with a 0
    inserted must equal the walk served the words without it, one word
    further on — whether the 0 sits mid-block, ends a block or starts the
    next one."""
    words = [(0x9E3779B9 * (i + 1)) & 0xFFFFFFFF or 1 for i in range(4000)]
    scripted = words[:rejected_at] + [0] + words[rejected_at:]
    outcomes = []
    for served in (words, scripted):
        overlay = UnstructuredOverlay(
            PeerPopulation(16),
            np.random.Generator(np.random.PCG64(3)),
            degree=3,
        )
        source = ScriptedWords(served)
        walker = RandomWalkSearch(overlay, source, walkers=4, ttl=60)
        result = walker.search(0, "absent")
        walker.rng  # settle
        outcomes.append((result, source.position))
    (plain, plain_used), (rejecting, rejecting_used) = outcomes
    assert rejecting == plain
    assert rejecting_used == plain_used + (rejected_at < plain_used)


# ----------------------------------------------------------------------
# Liveness changes between searches
# ----------------------------------------------------------------------
def test_second_search_sees_liveness_change_without_stale_neighbour(rng):
    """One online neighbour: every walker's one hop is forced onto it, and
    only ``second`` holds the key."""
    overlay = UnstructuredOverlay(PeerPopulation(30), rng, degree=3)
    first, second, *others = _neighbors(overlay.topology, 0)
    overlay.add_replicas("k", 1 << second, "value")
    for peer_id in (second, *others):
        overlay.population.set_online(peer_id, False)
    walker = RandomWalkSearch(overlay, rng, walkers=4, ttl=1)

    assert overlay.topology.online_adjacency()[0] == (first,)
    assert not walker.search(0, "k").found

    overlay.population.set_online(first, False)
    overlay.population.set_online(second, True)
    assert overlay.topology.online_adjacency()[0] == (second,)
    assert walker.search(0, "k").found


# ----------------------------------------------------------------------
# A search trapped in a component with no replica
# ----------------------------------------------------------------------
def _trap_world(shape, walkers=3, ttl=41):
    return World(
        num_peers=16, degree=4, topology_seed=2, walk_seed=5, predraws=1,
        origin=0, offline=shape, holders=frozenset(), walkers=walkers,
        ttl=ttl, flips=(),
    )


def _branching_peers(overlay, origin):
    """How many peers of ``origin``'s online component have two or more
    online neighbours: 0 a pair, 1 a star, more anything else."""
    component, stack = {origin}, [origin]
    while stack:
        for peer in overlay.topology.online_adjacency()[stack.pop()]:
            if peer not in component:
                component.add(peer)
                stack.append(peer)
    assert len(component) > 1
    rows = overlay.topology.online_adjacency()
    return sum(len(rows[p]) > 1 for p in component)


@pytest.mark.parametrize("world, tail", [
    pytest.param(_trap_world("two-peer-component"), "no draw", id="two-peer"),
    pytest.param(_trap_world("star-component"), "skip", id="star-centre-odd"),
    pytest.param(
        _trap_world("star-component", ttl=40), "skip", id="star-centre-even"
    ),
    pytest.param(
        _trap_world("star-component", walkers=1), "skip",
        id="star-centre-one-walker",
    ),
    pytest.param(_trap_world("leaf-of-star"), "skip", id="star-leaf"),
    pytest.param(_trap_world("small-component"), "loop", id="small-component"),
])
def test_each_trapped_tail_equals_the_reference(
    world, tail, telemetry, recorder
):
    overlay, _ = world.build(recorder)
    branching = _branching_peers(overlay, world.origin)
    assert {"no draw": branching == 0, "skip": branching == 1,
            "loop": branching > 1}[tail]
    _assert_equivalent(world, lambda: "k", recorder)
    counters = telemetry.counters
    assert counters["walk.trapped"] == counters["walk.searches"] == 2
    assert telemetry.snapshot()["spans"]["walk.run_out"]["count"] == 2


def test_an_isolated_origin_is_no_trap(telemetry, recorder):
    """Every walker dies at the first step: the search ends there."""
    _assert_equivalent(_trap_world("isolate-origin"), lambda: "k", recorder)
    assert telemetry.counters["walk.searches"] == 2
    assert "walk.trapped" not in telemetry.counters


class Key(str):
    """Equal to ``"k"``, but not a ``str`` by type."""


@pytest.mark.parametrize("shape", ["two-peer-component", "small-component"])
def test_a_key_that_is_not_a_str_ends_trapped(shape, telemetry, recorder):
    _assert_equivalent(_trap_world(shape), lambda: Key("k"), recorder)
    assert telemetry.counters["walk.searches"] == 2
    assert telemetry.counters["walk.trapped"] == 2
