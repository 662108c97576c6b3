"""Differential test: ``TtlKeyStore`` against the store it replaced.

An index entry used to be a mutable slotted ``TtlEntry`` per member, each
with its own ``(expires_at, key)`` heap record — ``inf`` expiries too.
It is now one immutable ``(value, expires_at)`` record that a
replica-group write builds once, together with one heap record, and
hands to every member it reaches (``TtlKeyStore.put`` / ``put_all``); an
``inf`` expiry gets no heap record, and a hit that moves the expiry
stores a new record at that member only. The replaced store is kept
below, verbatim, as ``ReferenceTtlKeyStore``.

Both are driven through the same generated operation sequences over a
*group* of stores, with shared writes and preloads reaching a subset of
them, and compared over what can be observed: the return value of every
operation (``query`` / ``peek`` / ``insert`` as ``(value, expires_at)``,
``remove``, ``purge_expired``, ``live_size``), every store's keys and
records in dict order — unpurged, so a purge the new store skips or adds
shows — ``len``, ``insertions`` and ``evictions_expired``. The new heap
must be the old one without its ``inf`` records (so a subset of it), and
hold a record for every live finite entry at its current expiry.

Mutations run against the new code, each caught by the test named:

* a hit refreshing the shared record in place (records made lists, the
  hit assigning ``record[1]``) — every member the write reached moves
  its expiry — ``test_store_equals_reference_under_random_operations``;
* ``put`` skipping the heap push for a finite expiry — the same test
  (the entry is never purged);
* ``put`` without its purge-before-insert guard — the same test and
  ``test_put_all_equals_the_reference_insert_all`` (under ``ttl = 0``
  each insert must evict the one before it);
* ``put_all`` aliasing the group map (``self.records = records`` into an
  empty store) instead of copying it — the first test (a later insert or
  hit at one member shows up at the others) and
  ``test_index_layout.py::test_preload_shares_records_not_maps``;
* ``put_all`` purging once even when the batch expires at ``now`` — the
  ``put_all`` test;
* ``query`` pushing a heap record for an expiry moved to ``inf`` (after
  a retarget) — ``test_hits_on_an_unmoved_expiry_push_no_heap_record``
  (the random operations rarely reach it).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from hypothesis import given, settings, strategies as st

from repro.pdht.ttl_cache import TtlKeyStore


# ----------------------------------------------------------------------
# The replaced store, verbatim
# ----------------------------------------------------------------------
@dataclass(slots=True)
class TtlEntry:
    """One stored key: value, expiry, and access statistics."""

    key: str
    value: object
    expires_at: float
    inserted_at: float
    hits: int = 0


class ReferenceTtlKeyStore:
    def __init__(self, ttl: float) -> None:
        self.ttl = float(ttl)
        self._entries: dict[str, TtlEntry] = {}
        self._expiry_heap: list[tuple[float, str]] = []
        self.insertions = 0
        self.evictions_expired = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    def insert(self, key: str, value: object, now: float) -> TtlEntry:
        self.insert_all(((key, value),), now)
        return self._entries[key]

    def insert_all(
        self, pairs: Iterable[tuple[str, object]], now: float
    ) -> None:
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
            entry.expires_at = expires_at
            heapq.heappush(self._expiry_heap, (expires_at, key))
        return entry

    def peek(self, key: str, now: float) -> TtlEntry | None:
        entry = self._entries.get(key)
        if entry is None or entry.expires_at <= now:
            return None
        return entry

    def remove(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def purge_expired(self, now: float) -> int:
        purged = 0
        while self._expiry_heap and self._expiry_heap[0][0] <= now:
            expires_at, key = heapq.heappop(self._expiry_heap)
            entry = self._entries.get(key)
            if entry is None or entry.expires_at != expires_at:
                continue
            if entry.expires_at <= now:
                del self._entries[key]
                self.evictions_expired += 1
                purged += 1
        return purged

    def live_size(self, now: float) -> int:
        self.purge_expired(now)
        return len(self._entries)

    def entries(self) -> list[TtlEntry]:
        return list(self._entries.values())


# ----------------------------------------------------------------------
# What can be observed
# ----------------------------------------------------------------------
def observed(result):
    """A record, or an entry as ``(value, expires_at)``; anything else
    as it is."""
    if isinstance(result, TtlEntry):
        return (result.value, result.expires_at)
    return result


def state(store):
    if isinstance(store, ReferenceTtlKeyStore):
        records = [(e.key, e.value, e.expires_at) for e in store.entries()]
    else:
        records = [(key, *record) for key, record in store.records.items()]
    return (
        records, list(store.keys()), len(store), store.insertions,
        store.evictions_expired,
    )


def assert_heap_matches(new: TtlKeyStore, old: ReferenceTtlKeyStore) -> None:
    """The new heap is the old one without its ``inf`` records, and holds
    every live finite entry at its current expiry."""
    assert Counter(new._expiry_heap) == Counter(
        record for record in old._expiry_heap if record[0] != math.inf
    )
    records = set(new._expiry_heap)
    assert all(
        (expires_at, key) in records
        for key, (_, expires_at) in new.records.items()
        if expires_at != math.inf
    )


def shared_write(stores, key, value, now):
    """What ``PdhtNetwork._insert_into_index`` does to the members it
    reaches: one record and one heap record for all of them."""
    expires_at = now + stores[0].ttl
    record = (value, expires_at)
    heap_record = (expires_at, key)
    for store in stores:
        store.put(key, record, heap_record, now)


def shared_preload(stores, pairs, now):
    """What ``PdhtNetwork.preload_index_all`` does to one group."""
    expires_at = now + stores[0].ttl
    records = {key: (value, expires_at) for key, value in pairs}
    for store in stores:
        store.put_all(records, expires_at, now)


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
GROUP = 3
KEYS = st.sampled_from([f"k{i}" for i in range(6)])
MEMBER = st.integers(0, GROUP - 1)
#: Which members a shared write or preload reaches (a flood under churn
#: may miss some).
REACHED = st.sets(MEMBER, min_size=1).map(sorted)
TTLS = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, math.inf])
#: Rounds advance by whole steps mostly, sometimes not at all (several
#: operations in one round) and sometimes by a fraction.
STEPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0])
OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), MEMBER, KEYS),
    st.tuples(st.just("write"), REACHED, KEYS),
    st.tuples(st.just("preload"), REACHED, st.lists(KEYS, max_size=5)),
    st.tuples(st.just("query"), MEMBER, KEYS),
    st.tuples(st.just("query"), MEMBER, KEYS),
    st.tuples(st.just("peek"), MEMBER, KEYS),
    st.tuples(st.just("remove"), MEMBER, KEYS),
    st.tuples(st.just("purge"), MEMBER),
    st.tuples(st.just("live_size"), MEMBER),
    st.tuples(st.just("retarget"), TTLS),
)


def apply(group, operation, now, serial):
    name, *args = operation
    if name == "retarget":  # what PdhtNetwork.set_key_ttl does
        for store in group:
            store.ttl = args[0]
        return None
    if name == "write":
        reached = [group[i] for i in args[0]]
        if isinstance(group[0], TtlKeyStore):
            shared_write(reached, args[1], serial, now)
        else:
            for store in reached:
                store.insert(args[1], serial, now)
        return None
    if name == "preload":
        reached = [group[i] for i in args[0]]
        pairs = [(key, (serial, key)) for key in dict.fromkeys(args[1])]
        if isinstance(group[0], TtlKeyStore):
            shared_preload(reached, pairs, now)
        else:
            for store in reached:
                store.insert_all(pairs, now)
        return None
    store = group[args[0]]
    if name == "insert":
        return observed(store.insert(args[1], serial, now))
    if name == "query":
        return observed(store.query(args[1], now))
    if name == "peek":
        return observed(store.peek(args[1], now))
    if name == "remove":
        return store.remove(args[1])
    if name == "purge":
        return store.purge_expired(now)
    return store.live_size(now)


@settings(max_examples=400, deadline=None)
@given(
    ttl=TTLS,
    script=st.lists(st.tuples(STEPS, OPERATIONS), max_size=60),
)
def test_store_equals_reference_under_random_operations(ttl, script):
    old = [ReferenceTtlKeyStore(ttl) for _ in range(GROUP)]
    new = [TtlKeyStore(ttl) for _ in range(GROUP)]
    now = 0.0
    for serial, (step, operation) in enumerate(script):
        now += step
        assert apply(new, operation, now, serial) == apply(
            old, operation, now, serial
        ), operation
        for new_store, old_store in zip(new, old):
            assert state(new_store) == state(old_store), operation
            assert_heap_matches(new_store, old_store)


@settings(max_examples=120, deadline=None)
@given(
    ttl=TTLS,
    script=st.lists(
        st.tuples(STEPS, st.lists(KEYS, max_size=8), st.none() | TTLS),
        max_size=12,
    ),
)
def test_put_all_equals_the_reference_insert_all(ttl, script):
    """Batches land on whatever the previous ones left: an expired head
    in the heap (time moved on), keys already present, a store TTL
    retargeted in between (``None``: left as it is)."""
    old = ReferenceTtlKeyStore(ttl)
    new = TtlKeyStore(ttl)
    now = 0.0
    serial = 0
    for step, keys, retarget in script:
        now += step
        if retarget is not None:
            old.ttl = new.ttl = retarget
        unique = dict.fromkeys(keys)
        pairs = [(key, serial + i) for i, key in enumerate(unique)]
        serial += len(pairs)
        old.insert_all(pairs, now)
        assert shared_preload([new], pairs, now) is None
        assert state(new) == state(old)
        assert_heap_matches(new, old)


def test_hits_on_an_unmoved_expiry_push_no_heap_record():
    forever = TtlKeyStore(math.inf)
    record = forever.insert("hot", "payload", now=0.0)
    assert record == ("payload", math.inf)
    for round_ in range(10_000):
        assert forever.query("hot", now=float(round_)) is record
    assert forever._expiry_heap == []

    # Several hits inside one round move the expiry once.
    store = TtlKeyStore(5.0)
    store.insert("hot", "payload", now=0.0)
    for _ in range(100):
        store.query("hot", now=3.0)
    assert store._expiry_heap == [(5.0, "hot"), (8.0, "hot")]
    assert store.purge_expired(8.0) == 1 and len(store) == 0

    # A hit after a retarget to ``inf`` moves the expiry there: a new
    # record, and no heap record for it (the old one goes stale).
    store.insert("hot", "payload", now=8.0)
    store.ttl = math.inf
    assert store.query("hot", now=9.0) == ("payload", math.inf)
    assert store._expiry_heap == [(13.0, "hot")]
    assert store.purge_expired(13.0) == 0 and "hot" in store
