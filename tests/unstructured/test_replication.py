"""Tests for random content replication."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.net.node import PeerPopulation
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.replication import ContentReplicator


@pytest.fixture
def replicator(rng):
    overlay = UnstructuredOverlay(PeerPopulation(100), rng, degree=4)
    return ContentReplicator(overlay, replication=10, rng=rng)


class TestPlacement:
    def test_places_exactly_repl_distinct_holders(self, replicator):
        placement = replicator.place("k", "v")
        assert len(placement.row.tolist()) == 10
        assert len(set(placement.row.tolist())) == 10

    def test_holders_actually_store_value(self, replicator):
        placement = replicator.place("k", "v")
        for holder in placement.row.tolist():
            assert replicator.overlay.value_at(holder, "k") == "v"

    def test_double_place_rejected(self, replicator):
        replicator.place("k", "v")
        with pytest.raises(ParameterError):
            replicator.place("k", "v2")

    def test_refresh_replaces_replicas(self, replicator):
        old = replicator.place("k", "v1")
        replicator.refresh_all({"k": "v2"})
        new = replicator._placements["k"]
        for holder in new.row.tolist():
            assert replicator.overlay.value_at(holder, "k") == "v2"
        gone = set(old.row.tolist()) - set(new.row.tolist())
        for holder in gone:
            assert not replicator.overlay.peer_has(holder, "k")

    def test_remove_drops_all_replicas(self, replicator):
        placement = replicator.place("k", "v")
        replicator.remove("k")
        assert "k" not in replicator.overlay.content
        for holder in placement.row.tolist():
            with pytest.raises(KeyError):
                replicator.overlay.value_at(holder, "k")
        assert list(replicator._placements) == []

    def test_remove_unknown_is_noop(self, replicator):
        replicator.remove("never-placed")

    def test_replication_exceeding_population_rejected(self, rng):
        overlay = UnstructuredOverlay(PeerPopulation(5), rng, degree=2)
        with pytest.raises(ParameterError):
            ContentReplicator(overlay, replication=6, rng=rng)

