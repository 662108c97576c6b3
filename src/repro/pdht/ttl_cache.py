"""The TTL key store — Section 5.1's eviction mechanism.

"Each key has an expiration time keyTtl [...]. The expiration time of a
key is reset to a predefined value whenever the peer that stores the key
receives a query for it. Therefore, peers evict those keys from their
local storage that have not been queried for keyTtl rounds."

The store is lazy: expired entries are purged when touched or when
:meth:`TtlKeyStore.purge_expired` runs (the strategies call it once per
reporting window), so no per-entry timers burden the event loop. All
operations are O(1) amortised except purge, which is linear in the number
of *expired* entries thanks to an expiry-ordered auxiliary heap.

Every entry follows the store's one ``ttl``; retargeting it (the adaptive
controller does) takes effect on each entry's next hit or re-insert. The
store has no slot limit: ``stor`` sizes ``numActivePeers`` in the paper,
it is not a drop policy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ParameterError

__all__ = ["TtlEntry", "TtlKeyStore"]


@dataclass(slots=True)
class TtlEntry:
    """One stored key: value, expiry, and access statistics."""

    key: str
    value: object
    expires_at: float
    inserted_at: float
    hits: int = 0


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
        self._entries: dict[str, TtlEntry] = {}
        #: (expires_at, key) heap; entries may be stale (expiry was reset),
        #: validated against ``_entries`` on pop.
        self._expiry_heap: list[tuple[float, str]] = []
        self.insertions = 0
        self.evictions_expired = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    # ------------------------------------------------------------------
    def insert(self, key: str, value: object, now: float) -> TtlEntry:
        """Insert or overwrite ``key``; (re)arms its expiration clock."""
        self.insert_all(((key, value),), now)
        return self._entries[key]

    def insert_all(
        self, pairs: Iterable[tuple[str, object]], now: float
    ) -> None:
        """:meth:`insert` every ``(key, value)`` of ``pairs``, in order.

        Each entry is inserted on its own — expired entries purged when
        the heap's head is due — so the store ends up exactly as after
        that many single inserts. The one thing done per batch is the
        expiry: the entries and heap records of a batch share one float,
        which for an
        index preload (three quarters of an event run's inserts) is
        megabytes of peak memory. That is why the body lives here and
        :meth:`insert` is the one-pair case, paying an extra frame
        (sizes in ``CHANGES.md``, PR 22).
        """
        expires_at = now + self.ttl
        entries = self._entries
        heap = self._expiry_heap
        for key, value in pairs:
            if heap and heap[0][0] <= now:
                self.purge_expired(now)
            entries[key] = TtlEntry(key, value, expires_at, now)
            heapq.heappush(heap, (expires_at, key))
            self.insertions += 1

    def query(self, key: str, now: float) -> TtlEntry | None:
        """Look up ``key``; a hit resets its expiration to ``now + ttl``.

        Returns None on a miss, including the case where the entry expired
        before ``now`` (it is purged on the spot).
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expires_at <= now:
            del self._entries[key]
            self.evictions_expired += 1
            return None
        entry.hits += 1
        expires_at = now + self.ttl
        if expires_at != entry.expires_at:
            # A live entry always has a heap record at its current expiry;
            # an unmoved one (``inf`` TTL, a second hit in one round)
            # needs no other.
            entry.expires_at = expires_at
            heapq.heappush(self._expiry_heap, (expires_at, key))
        return entry

    def peek(self, key: str, now: float) -> TtlEntry | None:
        """Like :meth:`query` but without resetting the expiration."""
        entry = self._entries.get(key)
        if entry is None or entry.expires_at <= now:
            return None
        return entry

    def remove(self, key: str) -> bool:
        """Explicitly drop ``key``; True if it was present."""
        return self._entries.pop(key, None) is not None

    # ------------------------------------------------------------------
    def purge_expired(self, now: float) -> int:
        """Evict every entry whose expiration passed; returns count."""
        purged = 0
        while self._expiry_heap and self._expiry_heap[0][0] <= now:
            expires_at, key = heapq.heappop(self._expiry_heap)
            entry = self._entries.get(key)
            if entry is None or entry.expires_at != expires_at:
                continue  # stale heap record: entry was refreshed or removed
            if entry.expires_at <= now:
                del self._entries[key]
                self.evictions_expired += 1
                purged += 1
        return purged

    # ------------------------------------------------------------------
    def live_size(self, now: float) -> int:
        """Number of unexpired entries (purges as a side effect)."""
        self.purge_expired(now)
        return len(self._entries)

    def entries(self) -> list[TtlEntry]:
        """Snapshot of all (possibly expired-but-unpurged) entries."""
        return list(self._entries.values())
