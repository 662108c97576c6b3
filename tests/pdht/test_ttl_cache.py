"""Tests for the TTL key store (Section 5.1's eviction mechanism)."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.pdht.ttl_cache import TtlKeyStore


class TestInsertAndQuery:
    def test_insert_then_query_hits(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        entry = store.query("k", now=5.0)
        assert entry is not None and entry.value == "v"

    def test_entry_expires_after_ttl(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        assert store.query("k", now=10.0) is None  # expiry is inclusive

    def test_query_resets_ttl(self):
        # The core of the selection algorithm: a hit rearms the clock.
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        assert store.query("k", now=9.0) is not None   # t=9, now expires 19
        assert store.query("k", now=18.0) is not None  # t=18, expires 28
        assert store.query("k", now=27.0) is not None
        assert store.query("k", now=40.0) is None      # quiet > ttl: gone

    def test_unqueried_key_times_out_despite_other_traffic(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("hot", "v", now=0.0)
        store.insert("cold", "v", now=0.0)
        for t in range(1, 30, 3):
            store.query("hot", now=float(t))
        assert store.query("hot", now=30.0) is not None
        assert store.query("cold", now=30.0) is None

    def test_peek_does_not_reset(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        assert store.peek("k", now=9.0) is not None
        assert store.query("k", now=11.0) is None  # peek did not rearm

    def test_miss_returns_none(self):
        assert TtlKeyStore(ttl=10.0).query("missing", now=0.0) is None

    def test_reinsert_rearms(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v1", now=0.0)
        store.insert("k", "v2", now=8.0)
        entry = store.query("k", now=15.0)
        assert entry is not None and entry.value == "v2"

    def test_default_entries_follow_retargeted_store_ttl(self):
        # Entries adopt the store's *current* TTL on their next hit (the
        # adaptive controller relies on it).
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        store.ttl = 50.0
        assert store.query("k", now=5.0) is not None  # expires at 55
        assert store.query("k", now=54.0) is not None

    def test_zero_ttl_expires_immediately(self):
        store = TtlKeyStore(ttl=0.0)
        store.insert("k", "v", now=0.0)
        assert store.query("k", now=0.0) is None

    def test_infinite_ttl_never_expires(self):
        store = TtlKeyStore(ttl=float("inf"))
        store.insert("k", "v", now=0.0)
        assert store.query("k", now=1e12) is not None

    def test_hits_counted(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        store.query("k", now=1.0)
        store.query("k", now=2.0)
        assert store.peek("k", now=3.0).hits == 2

    def test_negative_ttl_rejected(self):
        with pytest.raises(ParameterError):
            TtlKeyStore(ttl=-1.0)


class TestPurge:
    def test_purge_removes_only_expired(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("old", "v", now=0.0)
        store.insert("new", "v", now=5.0)
        purged = store.purge_expired(now=12.0)
        assert purged == 1
        assert "new" in store
        assert "old" not in store

    def test_purge_handles_refreshed_entries(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        store.query("k", now=9.0)  # stale heap record at t=10 remains
        purged = store.purge_expired(now=10.0)
        assert purged == 0
        assert "k" in store

    def test_live_size(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("a", 1, now=0.0)
        store.insert("b", 2, now=5.0)
        assert store.live_size(now=12.0) == 1

    def test_eviction_counters(self):
        store = TtlKeyStore(ttl=5.0)
        store.insert("a", 1, now=0.0)
        store.purge_expired(now=10.0)
        assert store.evictions_expired == 1
        assert store.insertions == 1


class TestRemove:
    def test_remove_present(self):
        store = TtlKeyStore(ttl=10.0)
        store.insert("k", "v", now=0.0)
        assert store.remove("k") is True
        assert "k" not in store

    def test_remove_absent(self):
        assert TtlKeyStore(ttl=10.0).remove("k") is False
