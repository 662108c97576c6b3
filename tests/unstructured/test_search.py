"""Tests for random-walk search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OfflinePeerError, ParameterError
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageMetrics
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.random_walk import RandomWalkSearch
from repro.unstructured.replication import ContentReplicator


@pytest.fixture
def searchable(rng):
    metrics = MessageMetrics()
    overlay = UnstructuredOverlay(PeerPopulation(200), rng, degree=4, metrics=metrics)
    replicator = ContentReplicator(overlay, replication=20, rng=rng)
    replicator.place("hot", "value-hot")
    return overlay, replicator, metrics


class TestRandomWalkSearch:
    def test_finds_existing_key(self, searchable, rng):
        overlay, _, _ = searchable
        result = RandomWalkSearch(overlay, rng, walkers=8).search(0, "hot")
        assert result.found
        assert result.value == "value-hot"

    def test_walk_cost_near_model(self, searchable, rng):
        # Eq. 6 predicts numPeers/repl * dup = 200/20 * dup messages. The
        # measured mean should land within a reasonable factor.
        overlay, _, _ = searchable
        search = RandomWalkSearch(overlay, rng, walkers=4)
        costs = [
            search.search(origin, "hot").messages
            for origin in range(40)
            if not overlay.peer_has(origin, "hot")
        ]
        mean_cost = sum(costs) / len(costs)
        ideal = 200 / 20
        assert ideal * 0.5 < mean_cost < ideal * 4.0

    def test_local_hit_costs_nothing(self, searchable, rng):
        overlay, _, _ = searchable
        holder = next(p for p in range(200) if overlay.peer_has(p, "hot"))
        result = RandomWalkSearch(overlay, rng).search(holder, "hot")
        assert result.found and result.messages == 0 and result.steps == 0

    def test_ttl_bounds_messages(self, searchable, rng):
        overlay, _, _ = searchable
        search = RandomWalkSearch(overlay, rng, walkers=2, ttl=5)
        result = search.search(0, "absent")
        assert not result.found
        assert result.messages <= 2 * 5

    def test_finds_any_existing_key_with_generous_ttl(self, searchable, rng):
        # The paper assumes the unstructured search "finds any key if it
        # exists in the network"; with the default generous TTL it must.
        overlay, replicator, _ = searchable
        replicator.place("rare", "v")
        search = RandomWalkSearch(overlay, rng, walkers=8)
        for origin in (0, 50, 150):
            assert search.search(origin, "rare").found

    def test_offline_origin_rejected(self, searchable, rng):
        overlay, _, _ = searchable
        overlay.population.set_online(0, False)
        with pytest.raises(OfflinePeerError):
            RandomWalkSearch(overlay, rng).search(0, "hot")

    def test_walkers_die_in_isolated_network(self, rng):
        # All neighbours offline: walkers have nowhere to go.
        overlay = UnstructuredOverlay(PeerPopulation(20), rng, degree=2)
        for peer_id in range(1, 20):
            overlay.population.set_online(peer_id, False)
        result = RandomWalkSearch(overlay, rng, walkers=4).search(0, "k")
        assert not result.found
        assert result.messages == 0

    @pytest.mark.parametrize("kwargs", [
        {"walkers": 0}, {"ttl": 0},
        {"walkers": 2.5}, {"walkers": True}, {"walkers": 8.0},
        {"ttl": 2.5}, {"ttl": float("nan")}, {"ttl": False},
    ])
    def test_invalid_parameters_rejected(self, searchable, rng, kwargs):
        overlay, _, _ = searchable
        with pytest.raises(ParameterError):
            RandomWalkSearch(overlay, rng, **kwargs)

    def test_numpy_integer_parameters_accepted(self, searchable, rng):
        overlay, _, _ = searchable
        walker = RandomWalkSearch(
            overlay, rng, walkers=np.int64(4), ttl=np.int32(50)
        )
        assert walker.search(0, "absent").messages <= 4 * 50
