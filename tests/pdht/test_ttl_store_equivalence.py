"""Differential test: ``TtlKeyStore`` against the ``insert`` / ``query``
bodies ISSUE 21 replaced.

Two things changed. ``insert`` calls ``purge_expired`` only when the
heap's top has expired — the condition the purge loop tests first — and
builds its slotted ``TtlEntry`` positionally (114,608 of a ``sim`` run's
149,512 inserts are index preloads onto an empty heap top). ``query``
pushes a heap record only when the hit *moves* the expiry: under
``keyTtl = inf`` (``indexAll``, ``partialIdeal``) every hit used to push
another ``(inf, key)`` that could never reach the top. The old bodies are
kept in ``ReferenceTtlKeyStore`` — verbatim but for the slot limit and
the per-entry TTL, which the store no longer has — and both stores are
driven through the same generated operation sequences; after every
operation the return value, the entries (fields and dict order), the two
counters and ``len`` must be ``==``; the new heap may
only hold records the old one holds too, one of them for every live
entry at its current expiry.

Mutations run against the new code, each caught by the test named:

* the guard written ``<`` instead of ``<=`` (an entry expiring exactly
  ``now`` — every ``ttl = 0`` insert — survives the next insert)
  — ``test_store_equals_reference_under_random_operations``;
* the guard without ``heap and`` — the same test (``IndexError`` on the
  first insert);
* ``query`` never pushing, or skipping the push but also the assignment
  of a *moved* expiry — the same test (a refreshed entry is purged at
  its old expiry, or never);
* the push made only when the expiry *grows* — the same test (a store
  retargeted to a shorter TTL moves an expiry earlier);
* the push made on every hit, as before —
  ``test_hits_on_an_unmoved_expiry_leave_one_heap_record``.

ISSUE 22 added ``insert_all`` (``insert`` is its one-pair case): the same
per-entry body in one loop, held to one reference ``insert`` per pair —
entries in insertion order, the heap *as a list* (its pop order), the
counters. Mutations run, caught by ``test_insert_all_equals_one_insert_per_pair``
(and, through ``insert``, by the property above):

* the purge guard hoisted out of the loop (an entry of the batch expiring
  at ``now`` — ``ttl = 0`` — must be purged by the next one);
* ``insertions`` bumped once per batch.
"""

from __future__ import annotations

import heapq
import math

from hypothesis import given, settings, strategies as st

from repro.pdht.ttl_cache import TtlEntry, TtlKeyStore


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
class ReferenceTtlKeyStore(TtlKeyStore):
    def insert(self, key, value, now):
        self.purge_expired(now)
        entry = TtlEntry(
            key=key, value=value, expires_at=now + self.ttl, inserted_at=now,
        )
        self._entries[key] = entry
        heapq.heappush(self._expiry_heap, (entry.expires_at, key))
        self.insertions += 1
        return entry

    def query(self, key, now):
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expires_at <= now:
            del self._entries[key]
            self.evictions_expired += 1
            return None
        entry.hits += 1
        entry.expires_at = now + self.ttl
        heapq.heappush(self._expiry_heap, (entry.expires_at, key))
        return entry


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
KEYS = st.sampled_from([f"k{i}" for i in range(6)])
TTLS = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, math.inf])
#: Rounds advance by whole steps mostly, sometimes not at all (several
#: operations in one round) and sometimes by a fraction.
STEPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0])
OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("query"), KEYS),
    st.tuples(st.just("query"), KEYS),
    st.tuples(st.just("peek"), KEYS),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("purge")),
    st.tuples(st.just("live_size")),
    st.tuples(st.just("retarget"), TTLS),
)


def fields(entry):
    if entry is None:
        return None
    return (
        entry.key, entry.value, entry.expires_at, entry.inserted_at,
        entry.hits,
    )


def apply(store, operation, now, serial):
    name, *args = operation
    if name == "insert":
        return fields(store.insert(args[0], serial, now))
    if name == "query":
        return fields(store.query(args[0], now))
    if name == "peek":
        return fields(store.peek(args[0], now))
    if name == "remove":
        return store.remove(args[0])
    if name == "purge":
        return store.purge_expired(now)
    if name == "live_size":
        return store.live_size(now)
    store.ttl = args[0]  # what PdhtNode.set_ttl does
    return None


def state(store):
    return (
        [fields(entry) for entry in store.entries()],
        list(store.keys()),
        len(store),
        store.insertions,
        store.evictions_expired,
    )


@settings(max_examples=400, deadline=None)
@given(
    ttl=TTLS,
    script=st.lists(st.tuples(STEPS, OPERATIONS), max_size=60),
)
def test_store_equals_reference_under_random_operations(ttl, script):
    old = ReferenceTtlKeyStore(ttl)
    new = TtlKeyStore(ttl)
    now = 0.0
    for serial, (step, operation) in enumerate(script):
        now += step
        assert apply(new, operation, now, serial) == apply(
            old, operation, now, serial
        ), operation
        assert state(new) == state(old), operation
        # What licenses the skipped push: every live entry still has a
        # record at its current expiry, and no record is new.
        records = set(new._expiry_heap)
        assert all(
            (entry.expires_at, entry.key) in records for entry in new.entries()
        )
        assert records <= set(old._expiry_heap)
        assert len(new._expiry_heap) <= len(old._expiry_heap)


@settings(max_examples=120, deadline=None)
@given(
    ttl=TTLS,
    script=st.lists(
        st.tuples(STEPS, st.lists(KEYS, max_size=8), st.none() | TTLS),
        max_size=12,
    ),
)
def test_insert_all_equals_one_insert_per_pair(ttl, script):
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
        pairs = [(key, serial + i) for i, key in enumerate(keys)]
        serial += len(pairs)
        for key, value in pairs:
            old.insert(key, value, now)
        assert new.insert_all(iter(pairs), now) is None
        assert state(new) == state(old)
        assert new._expiry_heap == old._expiry_heap


def test_hits_on_an_unmoved_expiry_leave_one_heap_record():
    forever = TtlKeyStore(math.inf)
    forever.insert("hot", "payload", now=0.0)
    for round_ in range(10_000):
        assert forever.query("hot", now=float(round_)).hits == round_ + 1
    assert len(forever._expiry_heap) == 1

    # Several hits inside one round move the expiry once.
    store = TtlKeyStore(5.0)
    store.insert("hot", "payload", now=0.0)
    for _ in range(100):
        store.query("hot", now=3.0)
    assert store._expiry_heap == [(5.0, "hot"), (8.0, "hot")]
    assert store.purge_expired(8.0) == 1 and len(store) == 0


def test_entries_are_slotted():
    entry = TtlKeyStore(3.0).insert("k", "v", now=2.0)
    assert not hasattr(entry, "__dict__")
    assert fields(entry) == ("k", "v", 5.0, 2.0, 0)
