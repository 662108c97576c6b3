"""Property-based tests for the TTL index, one member's view of it.

A stateful model-based test drives a one-member replica group's index
with random interleavings of inserts, queries, purges and clock
advances, comparing against a brute-force reference model
(``tests/pdht/test_group_index.py`` holds a whole group to one store per
member).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.pdht.ttl_cache import ReplicaGroupIndex

KEYS = [f"k{i}" for i in range(8)]
#: The one member of the group (a peer id).
MEMBER = 7


class TtlStoreMachine(RuleBasedStateMachine):
    """Reference-model comparison under random operation sequences."""

    def __init__(self):
        super().__init__()
        self.ttl = 10.0
        self.store = ReplicaGroupIndex((MEMBER,), ttl=self.ttl)
        self.model: dict[str, float] = {}  # key -> expires_at
        self.now = 0.0

    @rule(key=st.sampled_from(KEYS), value=st.integers())
    def insert(self, key, value):
        expires_at = self.now + self.ttl
        self.store.write(key, (value, expires_at), (MEMBER,), self.now)
        self.model[key] = self.now + self.ttl

    @rule(key=st.sampled_from(KEYS))
    def query(self, key):
        entry = self.store.query(key, MEMBER, now=self.now)
        model_live = key in self.model and self.model[key] > self.now
        assert (entry is not None) == model_live
        if model_live:
            self.model[key] = self.now + self.ttl
        else:
            self.model.pop(key, None)

    @rule(delta=st.floats(min_value=0.0, max_value=15.0))
    def advance(self, delta):
        self.now += delta

    @rule()
    def purge(self):
        self.store.purge_expired(self.now)

    @invariant()
    def live_sizes_match(self):
        model_live = sum(1 for exp in self.model.values() if exp > self.now)
        assert len(self.store.live_keys(self.now)) == model_live


TestTtlStoreStateful = TtlStoreMachine.TestCase
TestTtlStoreStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


@given(
    ttl=st.floats(min_value=0.1, max_value=1e6),
    gaps=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_key_survives_iff_gaps_below_ttl(ttl, gaps):
    """A key stays alive exactly while inter-query gaps stay under the TTL."""
    store = ReplicaGroupIndex((MEMBER,), ttl=ttl)
    now = 0.0
    store.write("k", (1, now + ttl), (MEMBER,), now)
    alive = True
    for gap in gaps:
        now += gap
        hit = store.query("k", MEMBER, now=now) is not None
        expected = alive and gap < ttl
        assert hit == expected
        alive = expected
        if not alive:
            break
