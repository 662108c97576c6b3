"""Differential test: ``ContentReplicator.place_all`` against the loop of
``place`` calls it replaced.

ISSUE 21 fills a substrate's content plane in one call: 8,000 keys x 50
holders written straight into the peers' ``content`` dicts instead of
400,000 bounds-checked ``UnstructuredOverlay.store`` calls. The old path
— ``PdhtNetwork.publish_all``'s loop, ``place`` and ``_draw_holders`` as
they were — is kept here verbatim and driven side by side with the new
one on twin overlays; they must leave the same world: holders (as plain
``int``), every peer's ``content`` dict *in insertion order*,
``placed_keys()``, and the ``"placement"`` generator's state, so a later
``refresh`` or ``place`` continues identically.

Mutations run against the new code, each caught by the test named:

* all holders drawn before any replica is written
  — ``test_duplicate_key_leaves_the_same_partial_state`` (the keys before
  the duplicate are not yet stored when it raises);
* the already-placed check dropped, or made after the draw
  — the same test (no error / the stream one draw further);
* holders left as numpy integers — ``test_place_all_equals_place_loop``
  (``type(holder) is int``: they are dict keys, list indices and JSON);
* one ``rng.choice`` of shape ``(keys, repl)`` instead of one per key
  — ``test_place_all_equals_place_loop`` (different holders and state).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.net.node import PeerPopulation
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.replication import ContentReplicator, ReplicaPlacement


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
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
        self.overlay.store(holder, key, value)
    placement = ReplicaPlacement(key=key, holders=holders)
    self._placements[key] = placement
    return placement


def reference_publish_all(replicator, items):
    for key, value in items.items():
        reference_place(replicator, key, value)


# ----------------------------------------------------------------------
def replicator(num_peers, replication, seed):
    overlay = UnstructuredOverlay(
        PeerPopulation(num_peers),
        np.random.Generator(np.random.PCG64(99)),
        degree=2,
    )
    return ContentReplicator(
        overlay, replication, np.random.Generator(np.random.PCG64(seed))
    )


def world(rep):
    """Everything a later query, refresh or walk can see."""
    return (
        [(key, rep.placement_of(key).holders) for key in rep.placed_keys()],
        [list(peer.content.items()) for peer in rep.overlay.population],
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
    old = replicator(num_peers, replication, seed)
    new = replicator(num_peers, replication, seed)
    reference_publish_all(old, items)
    new.place_all(items)
    assert world(new) == world(old)
    assert all(
        type(holder) is int
        for key in items
        for holder in new.placement_of(key).holders
    )
    # The stream continues identically: article replacement, a late key.
    if items:
        first = next(iter(items))
        old.remove(first)
        reference_place(old, first, "v2")
        new.refresh(first, "v2")
    reference_place(old, "late", 1)
    new.place("late", 1)
    assert world(new) == world(old)


@pytest.mark.parametrize("duplicate_at", [0, 3, 7])
def test_duplicate_key_leaves_the_same_partial_state(duplicate_at):
    items = {f"key-{i}": i for i in range(8)}
    duplicate = f"key-{duplicate_at}"
    old, new = replicator(20, 4, 5), replicator(20, 4, 5)
    reference_place(old, duplicate, "already here")
    new.place(duplicate, "already here")
    with pytest.raises(ParameterError, match="already placed"):
        reference_publish_all(old, items)
    with pytest.raises(ParameterError, match="already placed"):
        new.place_all(items)
    assert world(new) == world(old)
    assert new.placed_keys() == [duplicate, *list(items)[:duplicate_at]]
