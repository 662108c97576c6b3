"""Tests for PdhtConfig and the selection policy bookkeeping."""

from __future__ import annotations

import pytest

from repro.analysis.threshold import solve_threshold
from repro.errors import ParameterError
from repro.pdht.config import PdhtConfig
from repro.pdht.node import PdhtNode
from repro.pdht.selection import SelectionPolicy


class TestPdhtConfig:
    def test_from_scenario_derives_ttl(self, small_params):
        config = PdhtConfig.from_scenario(small_params)
        assert config.key_ttl == pytest.approx(
            solve_threshold(small_params).key_ttl
        )
        assert config.replication == small_params.replication
        assert config.storage_per_peer == small_params.storage_per_peer

    def test_from_scenario_overrides(self, small_params):
        config = PdhtConfig.from_scenario(
            small_params, overlay_degree=6, walkers=4
        )
        assert config.overlay_degree == 6
        assert config.walkers == 4

    def test_with_ttl(self):
        config = PdhtConfig().with_ttl(42.0)
        assert config.key_ttl == 42.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"key_ttl": -1.0},
            {"replication": 0},
            {"storage_per_peer": 0},
            {"overlay_degree": 0},
            {"walkers": 0},
            {"walk_ttl": 0},
            {"replica_degree": 0},
            {"key_ttl": -1e-9},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            PdhtConfig(**kwargs)

    def test_dht_kind_is_pgrid_and_not_an_argument(self, small_params):
        # The field stays only so that store keys do not change.
        assert PdhtConfig().dht_kind == "pgrid"
        with pytest.raises(TypeError):
            PdhtConfig(dht_kind="chord")
        with pytest.raises(TypeError):
            PdhtConfig.from_scenario(small_params, dht_kind="chord")

    def test_enforce_capacity_is_off_and_not_an_argument(self, small_params):
        # Kept for the store keys, like dht_kind: no store has a slot limit.
        assert PdhtConfig().enforce_capacity is False
        with pytest.raises(TypeError):
            PdhtConfig(enforce_capacity=True)
        with pytest.raises(TypeError):
            PdhtConfig.from_scenario(small_params, enforce_capacity=True)


class TestPdhtNode:
    def test_index_roundtrip(self):
        node = PdhtNode(peer_id=1, key_ttl=10.0)
        node.store.insert("k", "v", now=0.0)
        assert node.store.peek("k", now=5.0) is not None
        assert node.store.query("k", now=5.0) == ("v", 15.0)

    def test_ttl_governs_expiry(self):
        node = PdhtNode(peer_id=1, key_ttl=10.0)
        node.store.insert("k", "v", now=0.0)
        assert node.store.peek("k", now=10.0) is None

    def test_set_ttl_applies_to_new_activity(self):
        node = PdhtNode(peer_id=1, key_ttl=10.0)
        node.store.insert("k", "v", now=0.0)
        node.set_ttl(100.0)
        node.store.query("k", now=5.0)  # hit rearms with the new TTL
        assert node.store.peek("k", now=50.0) is not None

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PdhtNode(peer_id=-1, key_ttl=10.0)
        node = PdhtNode(peer_id=0, key_ttl=10.0)
        with pytest.raises(ParameterError):
            node.set_ttl(-1.0)


class TestSelectionPolicy:
    def test_hit_rate_accounting(self):
        policy = SelectionPolicy(key_ttl=10.0)
        policy.record_hit("a")
        policy.record_miss("b", resolved=True)
        assert policy.stats.queries == 2
        assert policy.stats.hit_rate == pytest.approx(0.5)

    def test_cold_miss_vs_reinsertion(self):
        policy = SelectionPolicy(key_ttl=10.0)
        policy.record_miss("k", resolved=True)   # never indexed: cold
        policy.record_insertion("k")
        policy.record_miss("k", resolved=True)   # was indexed: reinsertion
        assert policy.stats.cold_misses == 1
        assert policy.stats.reinsertions == 1

    def test_unresolved_counted(self):
        policy = SelectionPolicy(key_ttl=10.0)
        policy.record_miss("ghost", resolved=False)
        assert policy.stats.unresolved == 1

    def test_ever_indexed_tracking(self):
        policy = SelectionPolicy(key_ttl=10.0)
        assert not policy.was_ever_indexed("k")
        policy.record_insertion("k")
        assert policy.was_ever_indexed("k")

    def test_empty_stats(self):
        policy = SelectionPolicy(key_ttl=10.0)
        assert policy.stats.hit_rate == 0.0
        assert policy.stats.mean_index_size() == 0.0

    def test_index_size_sampling(self):
        policy = SelectionPolicy(key_ttl=10.0)
        policy.stats.sample_index_size(1.0, 10)
        policy.stats.sample_index_size(2.0, 20)
        assert policy.stats.mean_index_size() == pytest.approx(15.0)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ParameterError):
            SelectionPolicy(key_ttl=-1.0)
