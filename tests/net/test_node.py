"""Tests for peers and populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OfflinePeerError, ParameterError
from repro.net.node import ID_BITS, Peer, PeerPopulation, dht_id_for


class TestPeer:
    def test_starts_online(self):
        assert Peer(peer_id=0).online

    def test_negative_id_rejected(self):
        with pytest.raises(ParameterError):
            Peer(peer_id=-1)

    def test_dht_id_is_160_bit(self):
        peer = Peer(peer_id=42)
        assert 0 <= peer.dht_id < 2**ID_BITS

    def test_dht_id_deterministic(self):
        assert Peer(peer_id=7).dht_id == dht_id_for(7)

    def test_dht_ids_distinct(self):
        ids = {dht_id_for(i) for i in range(1000)}
        assert len(ids) == 1000

    def test_require_online_raises_when_offline(self):
        peer = Peer(peer_id=0)
        peer.go_offline(now=5.0)
        with pytest.raises(OfflinePeerError):
            peer.require_online()

    def test_liveness_transitions_record_times(self):
        peer = Peer(peer_id=0)
        peer.go_offline(now=3.0)
        assert peer.left_at == 3.0
        peer.go_online(now=9.0)
        assert peer.joined_at == 9.0
        assert peer.online


class TestPopulation:
    def test_all_online_initially(self, population):
        assert len(population.online_ids) == len(population)

    def test_empty_population_rejected(self):
        with pytest.raises(ParameterError):
            PeerPopulation(0)

    def test_indexing_bounds_checked(self, population):
        with pytest.raises(ParameterError):
            population[len(population)]
        with pytest.raises(ParameterError):
            population[-1]

    def test_set_online_updates_both_views(self, population):
        population.set_online(3, False, now=1.0)
        assert not population.is_online(3)
        assert not population[3].online
        assert 3 not in population.online_ids

    def test_set_online_idempotent(self, population):
        population.set_online(3, False, now=1.0)
        population.set_online(3, False, now=2.0)
        assert population[3].left_at == 1.0  # second call was a no-op

    def test_epoch_moves_only_on_real_transitions(self, population):
        assert population.liveness_epoch == 0
        population.set_online(3, True)  # already online
        assert population.liveness_epoch == 0
        population.set_online(3, False)
        assert population.liveness_epoch == 1
        population.set_online(3, False)  # already offline
        population.set_online(3, 0)  # falsy, same state
        assert population.liveness_epoch == 1
        population.set_online(3, True)
        assert population.liveness_epoch == 2

    def test_sorted_online_ids_served_once_per_epoch(self, population):
        first = population.sorted_online_ids()
        assert first == tuple(range(len(population)))
        population.set_online(7, True)  # no-op: same tuple object
        assert population.sorted_online_ids() is first
        population.set_online(7, False)
        assert population.sorted_online_ids() == tuple(
            i for i in range(len(population)) if i != 7
        )
        population.set_online(7, True)
        assert population.sorted_online_ids() == first

    def test_sample_online_follows_liveness_changes(self, population):
        for peer_id in range(4, len(population)):
            population.set_online(peer_id, False)
        rng = np.random.default_rng(0)
        assert sorted(population.sample_online(rng, 4)) == [0, 1, 2, 3]
        population.set_online(0, False)
        population.set_online(9, True)
        assert sorted(population.sample_online(rng, 4)) == [1, 2, 3, 9]

    def test_online_ids_snapshot_is_frozen(self, population):
        snapshot = population.online_ids
        population.set_online(0, False)
        assert 0 in snapshot  # snapshot unaffected
        assert 0 not in population.online_ids

    def test_online_peers_sorted(self, population):
        population.set_online(5, False)
        ids = list(population.sorted_online_ids())
        assert ids == sorted(ids)
        assert 5 not in ids

    def test_sample_online_distinct(self, population, rng):
        sample = population.sample_online(rng, 10)
        assert len(set(sample)) == 10
        assert all(population.is_online(p) for p in sample)

    def test_sample_more_than_online_rejected(self, population, rng):
        with pytest.raises(ParameterError):
            population.sample_online(rng, len(population) + 1)

    def test_iteration_covers_everyone(self, population):
        assert len(list(population)) == len(population)
