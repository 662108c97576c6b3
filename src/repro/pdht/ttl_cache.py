"""The TTL index of one replica group — Section 5.1's eviction mechanism.

"Each key has an expiration time keyTtl [...]. The expiration time of a
key is reset to a predefined value whenever the peer that stores the key
receives a query for it. Therefore, peers evict those keys from their
local storage that have not been queried for keyTtl rounds."

Every member of a replica group keeps its own TTL key store in the
paper, but an index write reaches the whole group through one flood, so
the members' stores mostly hold the same records. One
:class:`ReplicaGroupIndex` holds them once per group. For each key it
keeps

* the group's latest record (:attr:`ReplicaGroupIndex.latest`), one
  immutable ``(value, expires_at)`` tuple (:data:`IndexRecord`);
* which members hold that record, as a bitmask over the members'
  positions (:attr:`ReplicaGroupIndex.holders`; no entry: every member);
* a record per member only where that member differs from the group
  (:attr:`ReplicaGroupIndex.own`): a hit moved its expiry, or a later
  write's flood missed it while it held a live older record.

A member's view of a key is the latest record if it is a holder, else its
own record, if any; a record whose expiry is not after ``now`` is a miss,
exactly as in a store of its own. So a write that reaches the whole group
is O(1), an unreached holder keeps a copy only if its old record is still
live (an expired one can never be read), and after a miss at one member
only the members holding a live record need asking.

The index is lazy: expired records are dropped when a write finds one
due or when :meth:`ReplicaGroupIndex.purge_expired` runs (the strategies
size the index once per reporting window), so no per-entry timers burden
the event loop. Purge is linear in the number of *expired* records thanks
to an expiry-ordered heap of ``(expires_at, key)``; a record expiring at
``inf`` (``indexAll``, ``partialIdeal``) has none, since purge could never
pop it. Every record follows the index's one ``ttl``, fixed for the run.
There is no slot limit: ``stor`` sizes ``numActivePeers`` in the paper,
it is not a drop policy.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

from repro import obs
from repro.errors import ParameterError
from repro.net.node import PeerId

__all__ = ["IndexRecord", "ReplicaGroupIndex"]

#: One indexed key: ``(value, expires_at)``. Immutable and shared.
IndexRecord = tuple[object, float]


def _positions(mask: int) -> Iterable[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ReplicaGroupIndex:
    """Every member's TTL key store of one replica group, held once.

    Parameters
    ----------
    members:
        The group's members; a member's position in it is its bit in
        :attr:`holders` and its key in :attr:`own`.
    ttl:
        Expiration horizon in rounds (``keyTtl``). Zero means records
        expire immediately (degenerates to no index).
    """

    def __init__(self, members: Sequence[PeerId], ttl: float) -> None:
        if ttl < 0:
            raise ParameterError(f"ttl must be >= 0, got {ttl}")
        self.ttl = float(ttl)
        #: member -> its position in the group.
        self.position: dict[PeerId, int] = {
            member: index for index, member in enumerate(members)
        }
        self._everyone = (1 << len(self.position)) - 1
        #: key -> the group's latest record.
        self.latest: dict[str, IndexRecord] = {}
        #: key -> bitmask of the members holding ``latest[key]``; a key
        #: with no entry is held by every member.
        self.holders: dict[str, int] = {}
        #: key -> position -> a member's record that differs from the
        #: group's (never a position that holds ``latest[key]``).
        self.own: dict[str, dict[int, IndexRecord]] = {}
        #: (expires_at, key) heap, finite expiries only; entries may be
        #: stale (the record moved or was overwritten), and a pop checks
        #: the key's records against ``now``.
        self._expiry_heap: list[tuple[float, str]] = []

    # ------------------------------------------------------------------
    def write(
        self,
        key: str,
        record: IndexRecord,
        reached: Sequence[PeerId],
        now: float,
    ) -> None:
        """Store ``record`` (built by the caller as ``(value, now +
        ttl)``) at every member of ``reached``, the members a flood
        reached. A member it missed keeps what it held, if still live.
        Expired records are purged first when the heap's head is due."""
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self.purge_expired(now)
        if len(reached) == len(self.position):
            self.holders.pop(key, None)
            self.own.pop(key, None)
        else:
            position = self.position
            mask = 0
            for member in reached:
                mask |= 1 << position[member]
            self._write_some(key, mask, now)
            self.holders[key] = mask
        self.latest[key] = record
        if record[1] != math.inf:
            heapq.heappush(heap, (record[1], key))

    def _write_some(self, key: str, mask: int, now: float) -> None:
        """Before a write reaching the members of ``mask``: every
        unreached holder of a live latest record keeps it as its own, and
        the reached members' own records go."""
        own = self.own
        kept = own.get(key)
        old = self.latest.get(key)
        if old is not None and old[1] > now:
            missed = self.holders.get(key, self._everyone) & ~mask
            if missed:
                if kept is None:
                    kept = own[key] = {}
                for position in _positions(missed):
                    kept[position] = old
        if kept:
            for position in _positions(mask):
                kept.pop(position, None)
            if not kept:
                del own[key]

    def write_all(
        self, records: dict[str, IndexRecord], expires_at: float, now: float
    ) -> None:
        """:meth:`write` every record of ``records`` — all expiring at
        ``expires_at`` — at every member of the group (a preload)."""
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self.purge_expired(now)
        holders, own = self.holders, self.own
        if holders or own:
            for key in records:
                holders.pop(key, None)
                own.pop(key, None)
        self.latest.update(records)
        if expires_at != math.inf:
            for key in records:
                heapq.heappush(heap, (expires_at, key))

    def query(self, key: str, member: PeerId, now: float) -> IndexRecord | None:
        """Look ``key`` up at ``member``; a hit resets that member's
        expiration to ``now + ttl`` and returns its (possibly new) record.

        Returns None on a miss, including a record that expired before
        ``now``.
        """
        position = self.position[member]
        bit = 1 << position
        record = self.latest.get(key)
        if record is not None:
            holders = self.holders.get(key, self._everyone)
            if not holders & bit:
                record = None
        if record is None:
            kept = self.own.get(key)
            if kept is None:
                return None
            record = kept.get(position)
            if record is None:
                return None
            holders = 0
        value, expires_at = record
        if expires_at <= now:
            return None
        moved = now + self.ttl
        if moved == expires_at:
            # A second hit in one round, or ``inf`` again: nothing moves.
            return record
        record = (value, moved)
        if moved != math.inf:
            heapq.heappush(self._expiry_heap, (moved, key))
        if holders == bit:
            self.latest[key] = record  # its sole holder
        elif holders:
            self.holders[key] = holders & ~bit
            self.own.setdefault(key, {})[position] = record
        else:
            kept[position] = record
        return record

    def scan(
        self, key: str, reached: Sequence[PeerId], now: float
    ) -> IndexRecord | None:
        """After ``key`` missed at ``reached[0]``, the first member of
        ``reached`` after it that holds a live record answers
        (:meth:`query` there); None if none does. Only the members whose
        view can differ from the one that missed are looked at."""
        live = 0
        record = self.latest.get(key)
        if record is not None and record[1] > now:
            live = self.holders.get(key, self._everyone)
        kept = self.own.get(key)
        if kept:
            for position, record in kept.items():
                if record[1] > now:
                    live |= 1 << position
        if live:
            position = self.position
            for member in reached[1:]:
                if live >> position[member] & 1:
                    return self.query(key, member, now)
        return None

    # ------------------------------------------------------------------
    def purge_expired(self, now: float) -> int:
        """Drop every record whose expiration passed; returns how many."""
        purged = 0
        heap = self._expiry_heap
        latest, holders, own = self.latest, self.holders, self.own
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            record = latest.get(key)
            if record is not None and record[1] <= now:
                del latest[key]
                holders.pop(key, None)
                purged += 1
            kept = own.get(key)
            if kept:
                dead = [p for p, record in kept.items() if record[1] <= now]
                for position in dead:
                    del kept[position]
                purged += len(dead)
                if not kept:
                    del own[key]
        obs.count("index.purges")
        if purged:
            obs.count("index.purged", purged)
        return purged

    def live_keys(self, now: float) -> set[str]:
        """The keys some member holds a live record of (purges first)."""
        self.purge_expired(now)
        return self.latest.keys() | self.own.keys()
