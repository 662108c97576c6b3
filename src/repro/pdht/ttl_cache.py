"""The TTL key store — Section 5.1's eviction mechanism.

"Each key has an expiration time keyTtl [...]. The expiration time of a
key is reset to a predefined value whenever the peer that stores the key
receives a query for it. Therefore, peers evict those keys from their
local storage that have not been queried for keyTtl rounds."

An entry is one immutable ``(value, expires_at)`` record
(:data:`IndexRecord`). Because nothing mutates it, one record serves
every member a replica-group write reaches: the network builds it once
per write, together with its ``(expires_at, key)`` heap record, and hands
both to each member's store (:meth:`TtlKeyStore.put`,
:meth:`TtlKeyStore.put_all`). A hit that moves the expiry stores a new
record at that member only.

The store is lazy: expired entries are purged when touched or when
:meth:`TtlKeyStore.purge_expired` runs (the strategies call it once per
reporting window), so no per-entry timers burden the event loop. All
operations are O(1) amortised except purge, which is linear in the number
of *expired* entries thanks to an expiry-ordered auxiliary heap. A record
expiring at ``inf`` (``indexAll``, ``partialIdeal``) has no heap record:
purge could never pop it.

Every entry follows the store's one ``ttl``, fixed for the run. The store
has no slot limit: ``stor`` sizes ``numActivePeers`` in the paper, it is
not a drop policy.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from repro import obs
from repro.errors import ParameterError

__all__ = ["IndexRecord", "TtlKeyStore"]

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
        obs.count("index.purges")
        if purged:
            obs.count("index.purged", purged)
        return purged

