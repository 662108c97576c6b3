"""One member's TTL key store (Section 5.1's eviction mechanism), the
oracle of the replica-group index, and its tests.

``TtlKeyStore`` is the store every DHT member once held on its own. The
network now holds a replica group's stores once
(``repro.pdht.ttl_cache.ReplicaGroupIndex``), and
``test_group_index.py`` holds every member's view of that index ``==``
to one of these per member; ``test_ttl_store_equivalence.py`` holds
this store to the one it replaced in turn.

An entry is one immutable ``(value, expires_at)`` record, shared by
every store a replica-group write reaches (``put`` / ``put_all``); a hit
that moves the expiry stores a new record at that store only. Expired
entries are purged when touched, when ``purge_expired`` runs, or by a
``put`` that finds the expiry heap's head due; an ``inf`` expiry gets no
heap record.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

import pytest

from repro.errors import ParameterError

#: One stored key: ``(value, expires_at)``. Immutable and shared.
IndexRecord = tuple[object, float]


class TtlKeyStore:
    """A key-value store whose entries expire ``ttl`` rounds after their
    last query.

    Parameters
    ----------
    ttl:
        Expiration horizon in rounds (``keyTtl``). Zero means entries
        expire immediately (degenerates to no index).
    """

    def __init__(self, ttl: float) -> None:
        if ttl < 0:
            raise ParameterError(f"ttl must be >= 0, got {ttl}")
        self.ttl = float(ttl)
        #: key -> record; read directly by replica-flood predicates.
        self.records: dict[str, IndexRecord] = {}
        #: (expires_at, key) heap, finite expiries only; records may be
        #: stale (expiry was reset), validated against ``records`` on pop.
        self._expiry_heap: list[tuple[float, str]] = []

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def keys(self) -> Iterator[str]:
        return iter(self.records)

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        record: IndexRecord,
        heap_record: tuple[float, str],
        now: float,
    ) -> None:
        """Insert or overwrite ``key`` with a record the caller built,
        (re)arming its expiration clock, so that one write hands the same
        ``record`` and ``heap_record`` (``(record[1], key)``) to every
        store it reaches. Expired entries are purged
        first when the heap's head is due, so under ``ttl = 0`` each
        insert evicts the one before it."""
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self.purge_expired(now)
        self.records[key] = record
        if heap_record[0] != math.inf:
            heapq.heappush(heap, heap_record)

    def put_all(
        self, records: dict[str, IndexRecord], expires_at: float, now: float
    ) -> None:
        """:meth:`put` every record of ``records`` — all expiring at
        ``expires_at`` — in order, copying the map rather than aliasing it.

        When the batch outlives ``now``, no insert of it can find an
        expired head that the first did not, so one purge and one
        ``dict.update`` leave the store exactly as the inserts one by one
        would; a batch expiring at ``now`` (``ttl = 0``) takes them one by
        one, and an empty one purges nothing.
        """
        if expires_at <= now or not records:
            for key, record in records.items():
                self.put(key, record, (expires_at, key), now)
            return
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self.purge_expired(now)
        self.records.update(records)
        if expires_at != math.inf:
            for key in records:
                heapq.heappush(heap, (expires_at, key))

    def query(self, key: str, now: float) -> IndexRecord | None:
        """Look up ``key``; a hit resets its expiration to ``now + ttl``
        and returns the (possibly new) record.

        Returns None on a miss, including the case where the entry expired
        before ``now`` (it is purged on the spot).
        """
        record = self.records.get(key)
        if record is None:
            return None
        value, expires_at = record
        if expires_at <= now:
            del self.records[key]
            return None
        moved = now + self.ttl
        if moved != expires_at:
            # A live finite entry always has a heap record at its current
            # expiry; an unmoved one (a second hit in one round, or
            # ``inf`` again) needs no other.
            record = self.records[key] = (value, moved)
            if moved != math.inf:
                heapq.heappush(self._expiry_heap, (moved, key))
        return record

    # ------------------------------------------------------------------
    def purge_expired(self, now: float) -> int:
        """Evict every entry whose expiration passed; returns count."""
        purged = 0
        heap = self._expiry_heap
        records = self.records
        while heap and heap[0][0] <= now:
            expires_at, key = heapq.heappop(heap)
            record = records.get(key)
            if record is None or record[1] != expires_at:
                continue  # stale heap record: entry was refreshed or removed
            del records[key]
            purged += 1
        return purged


def insert(store: TtlKeyStore, key: str, value: object, now: float):
    """Insert or overwrite ``key`` at one store, (re)arming its clock,
    through ``put``: the store has no single-store insert, because the
    network writes whole replica groups (``put`` / ``put_all``)."""
    expires_at = now + store.ttl
    record = (value, expires_at)
    store.put(key, record, (expires_at, key), now)
    return record


class TestInsertAndQuery:
    def test_insert_then_query_hits(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "k", "v", now=0.0)
        assert store.query("k", now=5.0) == ("v", 15.0)

    def test_entry_expires_after_ttl(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "k", "v", now=0.0)
        assert store.query("k", now=10.0) is None  # expiry is inclusive

    def test_query_resets_ttl(self):
        # The core of the selection algorithm: a hit rearms the clock.
        store = TtlKeyStore(ttl=10.0)
        insert(store, "k", "v", now=0.0)
        assert store.query("k", now=9.0) is not None   # t=9, now expires 19
        assert store.query("k", now=18.0) is not None  # t=18, expires 28
        assert store.query("k", now=27.0) is not None
        assert store.query("k", now=40.0) is None      # quiet > ttl: gone

    def test_unqueried_key_times_out_despite_other_traffic(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "hot", "v", now=0.0)
        insert(store, "cold", "v", now=0.0)
        for t in range(1, 30, 3):
            store.query("hot", now=float(t))
        assert store.query("hot", now=30.0) is not None
        assert store.query("cold", now=30.0) is None

    def test_miss_returns_none(self):
        assert TtlKeyStore(ttl=10.0).query("missing", now=0.0) is None

    def test_reinsert_rearms(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "k", "v1", now=0.0)
        insert(store, "k", "v2", now=8.0)
        assert store.query("k", now=15.0) == ("v2", 25.0)

    def test_default_entries_follow_retargeted_store_ttl(self):
        # Entries adopt the store's *current* TTL on their next hit (the
        # adaptive controller relies on it).
        store = TtlKeyStore(ttl=10.0)
        insert(store, "k", "v", now=0.0)
        store.ttl = 50.0
        assert store.query("k", now=5.0) is not None  # expires at 55
        assert store.query("k", now=54.0) is not None

    def test_zero_ttl_expires_immediately(self):
        store = TtlKeyStore(ttl=0.0)
        insert(store, "k", "v", now=0.0)
        assert store.query("k", now=0.0) is None

    def test_infinite_ttl_never_expires(self):
        store = TtlKeyStore(ttl=float("inf"))
        insert(store, "k", "v", now=0.0)
        assert store.query("k", now=1e12) is not None

    def test_hit_stores_a_new_record_with_the_moved_expiry(self):
        store = TtlKeyStore(ttl=10.0)
        inserted = insert(store, "k", "v", now=0.0)
        hit = store.query("k", now=2.0)
        assert inserted == ("v", 10.0) and hit == ("v", 12.0)
        assert store.records["k"] is hit
        assert store.query("k", now=2.0) is hit  # unmoved: the same record

    def test_negative_ttl_rejected(self):
        with pytest.raises(ParameterError):
            TtlKeyStore(ttl=-1.0)


class TestPurge:
    def test_purge_removes_only_expired(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "old", "v", now=0.0)
        insert(store, "new", "v", now=5.0)
        purged = store.purge_expired(now=12.0)
        assert purged == 1
        assert "new" in store
        assert "old" not in store

    def test_purge_handles_refreshed_entries(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "k", "v", now=0.0)
        store.query("k", now=9.0)  # stale heap record at t=10 remains
        purged = store.purge_expired(now=10.0)
        assert purged == 0
        assert "k" in store

    def test_live_size(self):
        store = TtlKeyStore(ttl=10.0)
        insert(store, "a", 1, now=0.0)
        insert(store, "b", 2, now=5.0)
        store.purge_expired(now=12.0)
        assert len(store) == 1

