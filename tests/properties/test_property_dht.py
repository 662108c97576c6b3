"""Property-based tests on P-Grid's DHT invariants.

For random member sets and random keys: the responsible peer is always an
online member, and routing always terminates at it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import PGridDht
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageMetrics

members_st = st.sets(st.integers(min_value=0, max_value=63), min_size=2, max_size=40)


def build(members):
    population = PeerPopulation(64)
    dht = PGridDht(population, MessageMetrics())
    dht.join_all(sorted(members))
    return dht


@given(members=members_st, key=st.text(min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_responsible_is_online_member(members, key):
    dht = build(members)
    responsible = dht.responsible_for(key)
    assert responsible in dht._members
    assert dht.population.is_online(responsible)


@given(
    members=members_st,
    key=st.text(min_size=1, max_size=12),
    origin_choice=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_routing_reaches_responsible(members, key, origin_choice):
    dht = build(members)
    online = dht.online_members()
    origin = online[origin_choice % len(online)]
    result = dht.lookup(origin, key)
    assert result.responsible == dht.responsible_for(key)
    assert result.messages <= len(members) + 200


@given(
    members=members_st,
    offline=st.sets(st.integers(min_value=0, max_value=63), max_size=20),
    key=st.text(min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_responsibility_under_partial_failures(members, offline, key):
    dht = build(members)
    survivors = members - offline
    if not survivors:
        return  # nothing to assert: the whole DHT is down
    for peer in offline & members:
        dht.population.set_online(peer, False)
    responsible = dht.responsible_for(key)
    assert responsible in survivors
    origin = dht.online_members()[0]
    result = dht.lookup(origin, key)
    assert result.responsible == responsible
