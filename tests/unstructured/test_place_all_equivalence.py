"""Differential test: ``ContentReplicator.place_all`` against the loop of
``place`` calls it replaced.

A substrate's content plane is filled in one call: the holders of every
key come from one ``repro.sim.rng.choice_rows`` call instead of one
``rng.choice`` per key, and each key is written into the overlay as one
holder bitmask instead of one ``UnstructuredOverlay.store`` per holder.
The old path — ``PdhtNetwork.publish_all``'s loop, ``place``, ``remove``
and ``_draw_holders`` as they were — is kept here verbatim and driven side
by side with the new one on twin overlays. The old replicator kept each
key's placement (holders in draw order, their mask) beside the overlay's
record; the new one keeps nothing and reads the record, so the reference
runs on a ``ReferenceReplicator`` holding those placements. The two must
leave the same world: each key's holders, the payload at every holder,
which peers hold which key (every ``(peer, key)``), the placement order,
and the ``"placement"`` generator's state, so a later ``refresh`` or
``place`` continues identically. ``refresh_all`` is held to a loop of
the old ``remove`` and ``place``.

Mutations run against the new code, each caught by the test named:

* rows drawn for every key, the already-placed one and those after it
  included — ``test_duplicate_key_leaves_the_same_partial_state`` (the
  stream further on);
* the already-placed check dropped — the same test (no error);
* one ``rng.choice`` of shape ``(keys, repl)`` instead of
  ``choice_rows`` — ``test_place_all_equals_place_loop`` (different
  holders and state);
* a holder mask built without the row's last holder —
  ``test_place_all_equals_place_loop`` (membership);
* ``refresh_all`` placing before it removes —
  ``test_refresh_all_equals_refresh_loop``;
* a memo hit that does not move the generator to the draw's end state —
  ``test_memo_hit_leaves_the_generator_where_choice_rows_would``;
* the memo keyed without the population size, ``repl`` or the key count —
  ``test_one_generator_state_many_placements`` (another draw's masks);
* networks sharing the memo's records instead of their masks —
  ``test_a_refresh_in_one_network_leaves_another_alone``;
* ``refresh_all`` drawing through the memo —
  ``test_a_refresh_draws_in_place_past_the_memo`` (no hit for the next
  network).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.net.node import PeerPopulation
from repro.sim.rng import choice_rows
from repro.unstructured import replication
from repro.unstructured.overlay import ContentRecord, UnstructuredOverlay
from repro.unstructured.replication import ContentReplicator


# ----------------------------------------------------------------------
# The replaced bodies, verbatim but for the placement record: a pair
# instead of the class with the holders as an int32 array
# ----------------------------------------------------------------------
class ReferenceReplicator(ContentReplicator):
    def __init__(self, *args):
        super().__init__(*args)
        self._placements = {}


def reference_draw_holders(self):
    population_size = len(self.overlay.population)
    chosen = self.rng.choice(
        population_size, size=self.replication, replace=False
    )
    return [int(c) for c in chosen]


def reference_place(self, key, value):
    if key in self._placements:
        raise ParameterError(f"key {key!r} already placed; use refresh()")
    holders = reference_draw_holders(self)
    for holder in holders:
        self.overlay.add_replicas(key, 1 << holder, value)
    placement = (holders, sum(1 << h for h in holders))
    self._placements[key] = placement
    return placement


def reference_remove(self, key):
    placement = self._placements.pop(key, None)
    if placement is not None:
        self.overlay.drop_replicas(key, placement[1])


def reference_publish_all(replicator, items):
    for key, value in items.items():
        reference_place(replicator, key, value)


# ----------------------------------------------------------------------
def replicator(num_peers, replication, seed, kind=ContentReplicator):
    overlay = UnstructuredOverlay(
        PeerPopulation(num_peers),
        np.random.Generator(np.random.PCG64(99)),
        degree=2,
    )
    return kind(
        overlay, replication, np.random.Generator(np.random.PCG64(seed))
    )


def twins(num_peers, replication, seed):
    """The reference replicator and the new one, on twin overlays."""
    return (
        replicator(num_peers, replication, seed, ReferenceReplicator),
        replicator(num_peers, replication, seed),
    )


def holds(overlay, peer, key):
    try:
        overlay.value_at(peer, key)
    except KeyError:
        return False
    return True


def _holders(overlay, key):
    """Every peer (online or not) holding ``key``, ascending."""
    record = overlay.content.get(key)
    mask = record.mask if record is not None else 0
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def world(rep):
    """Everything a later query, refresh or walk can see."""
    overlay = rep.overlay
    keys = list(overlay.content)
    return (
        [(key, _holders(overlay, key)) for key in keys],
        [
            [overlay.value_at(peer, key) for peer in _holders(overlay, key)]
            for key in keys
        ],
        [
            [holds(overlay, peer, key) for key in [*keys, "never-placed"]]
            for peer in range(len(overlay.population))
        ],
        rep.rng.bit_generator.state,
    )


@settings(max_examples=150, deadline=None)
@given(
    num_peers=st.integers(3, 40),
    replication=st.integers(1, 12),
    n_keys=st.integers(0, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_place_all_equals_place_loop(num_peers, replication, n_keys, seed):
    replication = min(replication, num_peers)
    items = {f"key-{i:06d}": f"value-{i}" for i in range(n_keys)}
    old, new = twins(num_peers, replication, seed)
    reference_publish_all(old, items)
    new.place_all(items)
    assert world(new) == world(old)
    # The stream continues identically: article replacement, a late key.
    if items:
        first = next(iter(items))
        reference_remove(old, first)
        reference_place(old, first, "v2")
        new.refresh_all({first: "v2"})
    reference_place(old, "late", 1)
    new.place("late", 1)
    assert world(new) == world(old)


@pytest.mark.parametrize("duplicate_at", [0, 3, 7])
def test_duplicate_key_leaves_the_same_partial_state(duplicate_at):
    items = {f"key-{i}": i for i in range(8)}
    duplicate = f"key-{duplicate_at}"
    old, new = twins(20, 4, 5)
    reference_place(old, duplicate, "already here")
    new.place(duplicate, "already here")
    with pytest.raises(ParameterError, match="already placed"):
        reference_publish_all(old, items)
    with pytest.raises(ParameterError, match="already placed"):
        new.place_all(items)
    assert world(new) == world(old)
    assert list(new.overlay.content) == [
        duplicate, *list(items)[:duplicate_at]
    ]


@settings(max_examples=80, deadline=None)
@given(
    num_peers=st.integers(3, 40),
    replication=st.integers(1, 12),
    n_keys=st.integers(1, 15),
    refreshed=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_refresh_all_equals_refresh_loop(
    num_peers, replication, n_keys, refreshed, seed
):
    replication = min(replication, num_peers)
    items = {f"key-{i:06d}": (i, 0) for i in range(n_keys)}
    old, new = twins(num_peers, replication, seed)
    reference_publish_all(old, items)
    new.place_all(items)
    # a prefix of the keys, plus one never placed
    again = {key: (i, 1) for i, key in enumerate(list(items)[:refreshed])}
    again["fresh"] = (-1, 1)
    for key, value in again.items():
        reference_remove(old, key)
        reference_place(old, key, value)
    new.refresh_all(again)
    assert world(new) == world(old)
    assert list(new.overlay.content) == list(old._placements)


def test_content_plane_layout():
    """One record per key held anywhere — an int holder mask and the
    payload — and no store on the peers."""
    rep = replicator(30, 4, 1)
    rep.place_all({"a": 1, "b": 2})
    overlay = rep.overlay
    assert list(overlay.content) == ["a", "b"]
    for key, value in (("a", 1), ("b", 2)):
        record = overlay.content[key]
        assert type(record) is ContentRecord
        assert type(record.mask) is int and record.value == value
        assert bin(record.mask).count("1") == 4
    assert not hasattr(overlay.population, "content")
    rep.remove("a")
    assert list(overlay.content) == ["b"]  # the record goes with its holders


# ----------------------------------------------------------------------
# The placement memo: one draw per generator state, shared by networks
# ----------------------------------------------------------------------
def test_memo_hit_leaves_the_generator_where_choice_rows_would():
    """Twin networks draw one placement: the second is a memo hit, and
    still leaves its generator, its holders and its records as the draw
    itself would — and as the reference loop does."""
    replication._placement.cache_clear()
    items = {f"key-{i:06d}": f"value-{i}" for i in range(30)}
    first, second = replicator(40, 6, 11), replicator(40, 6, 11)
    old = replicator(40, 6, 11, ReferenceReplicator)
    reference_publish_all(old, items)
    first.place_all(items)
    assert replication._placement.cache_info().misses == 1
    second.place_all(items)
    assert replication._placement.cache_info().hits == 1
    drawn = np.random.Generator(np.random.PCG64(11))
    rows = choice_rows(drawn, 40, 6, len(items))
    for rep in (first, second):
        assert world(rep) == world(old)
        assert rep.rng.bit_generator.state == drawn.bit_generator.state
        assert [
            sorted(row) for row in rows.tolist()
        ] == [_holders(rep.overlay, key) for key in items]
    # Drawn on from there, both streams continue identically.
    for rep in (first, second):
        rep.place("late", 1)
    reference_place(old, "late", 1)
    assert world(first) == world(second) == world(old)


def test_a_refresh_in_one_network_leaves_another_alone():
    """Networks that share a placement own their records: refreshing
    (or removing) in one changes nothing the other holds."""
    replication._placement.cache_clear()
    items = {f"key-{i:06d}": (i, 0) for i in range(12)}
    left, right = replicator(30, 4, 3), replicator(30, 4, 3)
    left.place_all(items)
    right.place_all(items)
    before = world(right)
    assert all(
        left.overlay.content[key] is not right.overlay.content[key]
        for key in items
    )
    left.refresh_all({key: (i, 1) for i, key in enumerate(items)})
    left.remove("key-000000")
    assert world(right) == before
    assert all(right.overlay.content[key].value == value
               for key, value in items.items())


def test_a_refresh_draws_in_place_past_the_memo():
    """A refresh neither reads nor fills the memo, so the next network's
    first placement still hits; it leaves its generator, holders and
    records exactly as the memo path would."""
    replication._placement.cache_clear()
    items = {f"key-{i:06d}": (i, 0) for i in range(12)}
    again = {key: (i, 1) for i, key in enumerate(items)}
    refreshed, memoised = replicator(30, 4, 5), replicator(30, 4, 5)
    refreshed.place_all(items)
    refreshed.refresh_all(again)
    info = replication._placement.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    memoised.place_all(items)
    assert replication._placement.cache_info().hits == 1
    for key in again:
        memoised.remove(key)
    memoised.place_all(again)  # the same draw, through the memo
    assert replication._placement.cache_info().misses == 2
    assert world(refreshed) == world(memoised)
    assert (
        refreshed.rng.bit_generator.state == memoised.rng.bit_generator.state
    )


def test_a_placement_over_the_byte_bound_is_drawn_in_place(monkeypatch):
    """A placement larger than its share of ``PLACEMENT_MEMO_BYTES`` is
    not kept, and draws exactly what a kept one would."""
    monkeypatch.setattr(
        replication, "PLACEMENT_MEMO_BYTES", 8 * replication.PLACEMENT_MEMO
    )
    replication._placement.cache_clear()
    items = {f"key-{i}": i for i in range(20)}
    old, new = twins(64, 5, 8)
    reference_publish_all(old, items)
    new.place_all(items)  # 64 peers * 20 keys = 160 bytes > an 8-byte share
    assert world(new) == world(old)
    info = replication._placement.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    new.place_all({"small": 0})  # 8 bytes: kept
    reference_place(old, "small", 0)
    assert world(new) == world(old)
    assert replication._placement.cache_info().currsize == 1


def test_one_generator_state_many_placements():
    """One seed, one after the other, with another population size,
    ``repl`` or key count each: every draw is its own."""
    replication._placement.cache_clear()
    for num_peers, repl, n_keys in ((30, 4, 6), (31, 4, 6), (31, 5, 6),
                                    (31, 5, 7), (30, 4, 6)):
        items = {f"key-{i}": i for i in range(n_keys)}
        old, new = twins(num_peers, repl, 21)
        reference_publish_all(old, items)
        new.place_all(items)
        assert world(new) == world(old)
