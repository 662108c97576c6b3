"""Tests for the unstructured overlay content/neighbour planes."""

from __future__ import annotations

import pytest

from repro.net.node import PeerPopulation
from repro.unstructured.overlay import UnstructuredOverlay


@pytest.fixture
def overlay(rng):
    return UnstructuredOverlay(PeerPopulation(40), rng, degree=4)


class TestContentPlane:
    def test_store_and_lookup(self, overlay):
        overlay.add_replicas("k", 1 << 3, "v")
        assert overlay.peer_has(3, "k")
        assert overlay.value_at(3, "k") == "v"

    def test_offline_peer_does_not_answer(self, overlay):
        overlay.add_replicas("k", 1 << 3, "v")
        overlay.population.set_online(3, False)
        assert not overlay.peer_has(3, "k")

    def test_offline_peer_keeps_replica(self, overlay):
        overlay.add_replicas("k", 1 << 3, "v")
        overlay.population.set_online(3, False)
        overlay.population.set_online(3, True)
        assert overlay.peer_has(3, "k")

    def test_drop_is_idempotent(self, overlay):
        overlay.add_replicas("k", 1 << 3, "v")
        overlay.drop_replicas("k", 1 << 3)
        overlay.drop_replicas("k", 1 << 3)
        assert not overlay.peer_has(3, "k")

    def test_holders_of(self, overlay):
        overlay.add_replicas("k", 1 << 1, "v")
        overlay.add_replicas("k", 1 << 5, "v")
        overlay.population.set_online(5, False)
        assert overlay.content["k"].mask == 1 << 1 | 1 << 5  # liveness-agnostic


class TestNeighbourPlane:
    def test_online_neighbors_shrink_under_churn(self, overlay):
        neighbors = overlay.topology.online_adjacency()[0]
        overlay.population.set_online(neighbors[0], False)
        assert len(overlay.topology.online_adjacency()[0]) == len(neighbors) - 1
