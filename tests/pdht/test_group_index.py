"""The replica-group index against one oracle store per member.

``ReplicaGroupIndex`` holds a replica group's TTL key stores once: the
group's latest record per key, a bitmask of the members holding it, and
a record of a member's own only where it differs (a hit moved its
expiry, or a later write's flood missed it while it held a live older
record). ``GroupIndexMachine`` drives one index and one ``TtlKeyStore``
per member (``test_ttl_cache.py``, the store each member once held)
through the network's operations — preload, a write reaching the
responsible member first and then any subset, a hit at a member, the
replica scan after a miss at the responsible member, clock advances and
purges — under ``keyTtl`` 0, fractional and ``inf``. After every step,
each member's live view (key -> record, expired records left out), the
keys some member holds live (``live_keys``, on a copy, since it purges)
and every answer are ``==`` to the oracle's.

Mutations run against the new code, each caught by the machine in three
runs of three (the scan's in two, and always by
``test_the_scan_asks_the_first_live_member_in_flood_order``):

* a write that drops an unreached holder's live older record
  (``_write_some`` without its ``kept[position] = old``);
* a hit at one holder moving every holder's expiry (``query`` replacing
  ``latest[key]`` whatever the holders);
* the scan in position order instead of flood order (iterating
  ``sorted(reached[1:], key=position.get)``);
* a write that keeps a reached member's own record (no ``kept.pop``);
* a preload that keeps a member's own record (no ``own.pop`` in
  ``write_all``).
"""

from __future__ import annotations

import copy
import math

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.pdht.ttl_cache import IndexRecord, ReplicaGroupIndex

from test_ttl_cache import TtlKeyStore

#: A replica group's members (peer ids, not positions) and the keys.
MEMBERS = (17, 3, 42, 8, 25)
KEYS = ("a", "b")


def index_view(index: ReplicaGroupIndex, member: int, now: float
               ) -> dict[str, IndexRecord]:
    """``member``'s live records in ``index``: the latest record where it
    is a holder, else its own."""
    position = index.position[member]
    bit = 1 << position
    everyone = (1 << len(index.position)) - 1
    view = {}
    for key, record in index.latest.items():
        if index.holders.get(key, everyone) & bit and record[1] > now:
            view[key] = record
    for key, kept in index.own.items():
        record = kept.get(position)
        if record is not None and record[1] > now:
            assert key not in view, "a holder of the latest has its own"
            view[key] = record
    return view


def oracle_view(store: TtlKeyStore, now: float) -> dict[str, IndexRecord]:
    """One oracle store's live records."""
    return {key: record for key, record in store.records.items()
            if record[1] > now}


def member_views(network) -> dict[int, dict[str, IndexRecord]]:
    """Every DHT member's live index records in ``network``: from the
    oracle stores a reference network carries as ``network.stores``, else
    from its replica-group indexes."""
    now = network.simulation.now
    stores = getattr(network, "stores", None)
    if stores is not None:
        return {member: oracle_view(store, now)
                for member, store in stores.items()}
    return {
        member: index_view(index, member, now)
        for index in network.indexes for member in index.position
    }


class GroupIndexMachine(RuleBasedStateMachine):
    """One index and one oracle store per member, step for step."""

    @initialize(ttl=st.sampled_from([0.0, 0.5, 2.5, math.inf]))
    def build(self, ttl):
        self.index = ReplicaGroupIndex(MEMBERS, ttl)
        self.stores = {member: TtlKeyStore(ttl) for member in MEMBERS}
        self.ttl = ttl
        self.now = 0.0
        self.writes = 0

    def _record(self) -> IndexRecord:
        self.writes += 1
        return f"v{self.writes}", self.now + self.ttl

    @rule(keys=st.lists(st.sampled_from(KEYS), unique=True))
    def preload(self, keys):
        expires_at = self.now + self.ttl
        records = {key: (f"p{self.writes}-{key}", expires_at) for key in keys}
        self.writes += 1
        self.index.write_all(records, expires_at, self.now)
        for store in self.stores.values():
            store.put_all(records, expires_at, self.now)

    @rule(key=st.sampled_from(KEYS), order=st.permutations(MEMBERS),
          count=st.integers(1, len(MEMBERS)))
    def write(self, key, order, count):
        reached = tuple(order[:count])  # the responsible member first
        record = self._record()
        self.index.write(key, record, reached, self.now)
        for member in reached:
            self.stores[member].put(key, record, (record[1], key), self.now)

    @rule(key=st.sampled_from(KEYS), member=st.sampled_from(MEMBERS))
    def hit(self, key, member):
        assert self.index.query(key, member, self.now) == (
            self.stores[member].query(key, self.now)
        )

    @rule(key=st.sampled_from(KEYS), order=st.permutations(MEMBERS),
          count=st.integers(1, len(MEMBERS)))
    def scan(self, key, order, count):
        """A query at the responsible member ``reached[0]`` and, on a
        miss, the replica scan over the flood's order (the replaced
        loop of ``PdhtNetwork.query`` on the oracle)."""
        reached = tuple(order[:count])
        stores, now = self.stores, self.now
        expected = stores[reached[0]].query(key, now)
        if expected is None:
            for member in reached[1:]:
                held = stores[member].records.get(key)
                if held is not None and held[1] > now:
                    expected = stores[member].query(key, now)
                    break
        answer = self.index.query(key, reached[0], now)
        if answer is None:
            answer = self.index.scan(key, reached, now)
        assert answer == expected

    @rule(delta=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 4.0]))
    def advance(self, delta):
        self.now += delta

    @rule()
    def purge(self):
        self.index.purge_expired(self.now)
        for store in self.stores.values():
            store.purge_expired(self.now)

    @invariant()
    def views_equal_the_oracle(self):
        views = {member: oracle_view(store, self.now)
                 for member, store in self.stores.items()}
        assert {member: index_view(self.index, member, self.now)
                for member in MEMBERS} == views
        live = set().union(*views.values())
        assert copy.deepcopy(self.index).live_keys(self.now) == live


TestGroupIndexMachine = GroupIndexMachine.TestCase
TestGroupIndexMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


def test_a_whole_group_write_keeps_one_record_and_no_mask():
    index = ReplicaGroupIndex(MEMBERS, 5.0)
    index.write("k", ("v", 7.0), MEMBERS, 2.0)
    assert index.latest == {"k": ("v", 7.0)}
    assert index.holders == {} and index.own == {}
    assert index._expiry_heap == [(7.0, "k")]


def test_an_unreached_holder_keeps_its_live_record_and_only_that():
    index = ReplicaGroupIndex(MEMBERS, 5.0)
    index.write("k", ("v1", 5.0), MEMBERS, 0.0)
    index.write("k", ("v2", 7.0), MEMBERS[:3], 2.0)
    # The two members the flood missed hold v1, as their own.
    assert index.holders == {"k": 0b00111}
    assert index.own == {"k": {3: ("v1", 5.0), 4: ("v1", 5.0)}}
    # Once v1 has expired, a write missing them keeps nothing of it.
    index.write("j", ("w1", 5.0), MEMBERS, 0.0)
    index.write("j", ("w2", 11.0), MEMBERS[:1], 6.0)
    assert index.own.get("j") is None
    assert index.query("j", MEMBERS[1], 6.0) is None


def test_the_scan_asks_the_first_live_member_in_flood_order():
    index = ReplicaGroupIndex(MEMBERS, 2.5)
    index.write("k", ("v", 2.5), (MEMBERS[0], MEMBERS[1]), 0.0)
    responsible = MEMBERS[2]
    assert index.query("k", responsible, 1.0) is None
    # Flood order, not group order: the second member answers and its
    # expiry alone moves.
    reached = (responsible, MEMBERS[1], MEMBERS[0])
    assert index.scan("k", reached, 1.0) == ("v", 3.5)
    assert index.own == {"k": {1: ("v", 3.5)}}
    assert index.holders == {"k": 0b1}
    assert index.scan("k", (responsible,), 1.0) is None
