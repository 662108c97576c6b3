"""Tests for PdhtConfig and the selection policy bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.threshold import solve_threshold
from repro.errors import ParameterError
from repro.pdht.config import PdhtConfig
from repro.pdht.node import PdhtNode
from repro.pdht.selection import SelectionPolicy

from test_ttl_cache import insert


class TestPdhtConfig:
    def test_from_scenario_derives_ttl(self, small_params):
        config = PdhtConfig.from_scenario(small_params)
        assert config.key_ttl == pytest.approx(
            solve_threshold(small_params).key_ttl
        )
        assert config.replication == small_params.replication

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
            {"overlay_degree": 0},
            {"walkers": 0},
            {"walk_ttl": 0},
            {"replica_degree": 0},
            {"key_ttl": -1e-9},
            {"key_ttl": float("nan")},
            {"walkers": 2.5},
            {"walkers": True},
            {"walk_ttl": 10.5},
            {"walk_ttl": float("nan")},
            {"walk_ttl": True},
            {"replication": 2.5},
            {"replication": True},
            {"overlay_degree": 2.5},
            {"overlay_degree": True},
            {"replica_degree": 1.5},
            {"replica_degree": True},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            PdhtConfig(**kwargs)

    def test_infinite_key_ttl_and_numpy_integers_accepted(self):
        config = PdhtConfig(
            key_ttl=float("inf"), walkers=np.int64(4), walk_ttl=np.int32(64)
        )
        assert (config.walkers, config.walk_ttl) == (4, 64)

    def test_dht_kind_is_pgrid_and_not_an_argument(self, small_params):
        # The field stays only so that store keys do not change.
        assert PdhtConfig().dht_kind == "pgrid"
        with pytest.raises(TypeError):
            PdhtConfig(dht_kind="chord")
        with pytest.raises(TypeError):
            PdhtConfig.from_scenario(small_params, dht_kind="chord")

    def test_storage_per_peer_is_100_and_not_an_argument(self, small_params):
        # Kept for the store keys, like dht_kind: nothing reads it.
        assert PdhtConfig().storage_per_peer == 100
        assert PdhtConfig.from_scenario(small_params).storage_per_peer == 100
        with pytest.raises(TypeError):
            PdhtConfig(storage_per_peer=50)
        with pytest.raises(TypeError):
            PdhtConfig.from_scenario(small_params, storage_per_peer=50)

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
        insert(node.store, "k", "v", now=0.0)
        assert node.store.query("k", now=5.0) == ("v", 15.0)

    def test_ttl_governs_expiry(self):
        node = PdhtNode(peer_id=1, key_ttl=10.0)
        insert(node.store, "k", "v", now=0.0)
        assert node.store.query("k", now=10.0) is None

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PdhtNode(peer_id=-1, key_ttl=10.0)


class TestSelectionPolicy:
    def test_hit_rate_accounting(self):
        policy = SelectionPolicy()
        policy.record_hit("a")
        policy.record_miss("b", resolved=True)
        assert policy.stats.queries == 2
        assert policy.stats.index_hits == 1

    def test_cold_miss_vs_reinsertion(self):
        policy = SelectionPolicy()
        policy.record_miss("k", resolved=True)   # never indexed: cold
        policy.record_insertion("k")
        policy.record_miss("k", resolved=True)   # was indexed: reinsertion
        assert policy.stats.cold_misses == 1
        assert policy.stats.reinsertions == 1

    def test_unresolved_counted(self):
        policy = SelectionPolicy()
        policy.record_miss("ghost", resolved=False)
        assert policy.stats.unresolved == 1


