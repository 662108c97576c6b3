"""Tests for peers and populations."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import OfflinePeerError, ParameterError
from repro.net.node import ID_BITS, PeerPopulation, dht_id_for


class TestPeer:
    def test_starts_online(self):
        assert PeerPopulation(1).is_online(0)

    def test_negative_id_rejected(self, population):
        with pytest.raises(ParameterError):
            population.require_online(-1)

    def test_dht_id_is_160_bit(self):
        assert 0 <= dht_id_for(42) < 2**ID_BITS

    def test_dht_id_deterministic(self):
        digest = hashlib.sha1(b"peer:7").digest()
        assert dht_id_for(7) == int.from_bytes(digest, "big")

    def test_dht_ids_distinct(self):
        ids = {dht_id_for(i) for i in range(1000)}
        assert len(ids) == 1000

    def test_require_online_raises_when_offline(self, population):
        population.set_online(0, False)
        with pytest.raises(OfflinePeerError):
            population.require_online(0)
        population.require_online(1)


class TestPopulation:
    def test_all_online_initially(self, population):
        assert len(population.online_ids) == len(population)

    def test_empty_population_rejected(self):
        with pytest.raises(ParameterError):
            PeerPopulation(0)

    def test_indexing_bounds_checked(self, population):
        for peer_id in (len(population), -1):
            with pytest.raises(ParameterError):
                population.check(peer_id)
            with pytest.raises(ParameterError):
                population.set_online(peer_id, False)
            with pytest.raises(ParameterError):
                population.require_online(peer_id)

    def test_set_online_updates_both_views(self, population):
        population.set_online(3, False)
        assert not population.is_online(3)
        assert 3 not in population.online_ids
        assert 3 not in population.sorted_online_ids()

    def test_set_online_idempotent(self, population):
        population.set_online(3, False)
        population.set_online(3, False)  # a no-op
        assert not population.is_online(3)
        assert len(population.online_ids) == len(population) - 1

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
