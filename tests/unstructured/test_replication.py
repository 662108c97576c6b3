"""Tests for random content replication."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.net.node import PeerPopulation
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.replication import ContentReplicator


def holders(replicator, key):
    """The peers holding ``key``, read off its record's bitmask."""
    mask = replicator.overlay.content[key].mask
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


@pytest.fixture
def replicator(rng):
    overlay = UnstructuredOverlay(PeerPopulation(100), rng, degree=4)
    return ContentReplicator(overlay, replication=10, rng=rng)


class TestPlacement:
    def test_places_exactly_repl_distinct_holders(self, replicator):
        replicator.place("k", "v")
        assert len(holders(replicator, "k")) == 10

    def test_holders_actually_store_value(self, replicator):
        replicator.place("k", "v")
        for holder in holders(replicator, "k"):
            assert replicator.overlay.value_at(holder, "k") == "v"

    def test_double_place_rejected(self, replicator):
        replicator.place("k", "v")
        with pytest.raises(ParameterError):
            replicator.place("k", "v2")

    def test_refresh_replaces_replicas(self, replicator):
        replicator.place("k", "v1")
        old = holders(replicator, "k")
        replicator.refresh_all({"k": "v2"})
        new = holders(replicator, "k")
        for holder in new:
            assert replicator.overlay.value_at(holder, "k") == "v2"
        gone = set(old) - set(new)
        assert gone
        for holder in gone:
            assert not replicator.overlay.peer_has(holder, "k")

    def test_remove_drops_all_replicas(self, replicator):
        replicator.place("k", "v")
        placed = holders(replicator, "k")
        replicator.remove("k")
        assert "k" not in replicator.overlay.content
        for holder in placed:
            with pytest.raises(KeyError):
                replicator.overlay.value_at(holder, "k")

    def test_remove_unknown_is_noop(self, replicator):
        replicator.remove("never-placed")

    def test_replication_exceeding_population_rejected(self, rng):
        overlay = UnstructuredOverlay(PeerPopulation(5), rng, degree=2)
        with pytest.raises(ParameterError):
            ContentReplicator(overlay, replication=6, rng=rng)

