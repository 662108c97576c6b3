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
  ``test_refresh_all_equals_refresh_loop``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.net.node import PeerPopulation
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
