"""The index plane allocates once per group write, not once per member.

A replica-group write — an ``indexAll`` / ``partialIdeal`` preload, a
miss's insertion, a proactive update — builds one immutable
``(value, expires_at)`` record per key and, for a finite expiry, one
``(expires_at, key)`` heap record, and the group's
``ReplicaGroupIndex`` holds *those objects* once for all its members; an
``inf`` expiry gets no heap record at all. ``test_group_index.py`` holds
every member's view to a store of its own; these tests pin the layout
itself, which equality of views cannot see.
"""

from __future__ import annotations

import math

from repro.analysis.parameters import ScenarioParameters
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork

PARAMS = ScenarioParameters(
    num_peers=60, n_keys=90, storage_per_peer=6, replication=5,
    query_freq=1.0 / 30.0,
)
ITEMS = {f"key-{k:06d}": f"value-{k}" for k in range(90)}


def _network(key_ttl: float) -> PdhtNetwork:
    config = PdhtConfig(key_ttl=key_ttl, replication=5, walkers=4)
    return PdhtNetwork(PARAMS, config, seed=4, num_active_peers=23)


def test_preload_holds_one_record_per_key_per_group():
    network = _network(math.inf)
    network.preload_index_all(ITEMS)
    assert len(network.indexes) == len(network._groups)
    placed = 0
    for group, index in zip(network._groups, network.indexes):
        assert all(network._index_of[m] is index for m in group.members)
        # Every member holds every record: no mask, no record of its own.
        assert index.holders == {} and index.own == {}
        for key, record in index.latest.items():
            assert record == (ITEMS[key], math.inf)
            assert network.group_of(network.dht.responsible_for(key)) is group
        placed += len(index.latest)
    assert placed == len(ITEMS)


def test_an_inf_index_keeps_no_heap_record():
    network = _network(math.inf)
    network.preload_index_all(ITEMS)
    key = next(iter(ITEMS))
    network.proactive_update(key, "v2")
    for _ in range(3):
        network.advance(1.0)
        network.query(network.random_online_peer(), key)
    assert all(not index._expiry_heap for index in network.indexes)
    # A hit under ``inf`` moves nothing, so no member gets its own record.
    assert all(not index.own for index in network.indexes)


def test_one_insert_is_one_record_and_one_heap_record():
    network = _network(5.0)
    network.advance(2.0)
    key = "key-000042"
    network.proactive_update(key, "payload")
    holding = [index for index in network.indexes if key in index.latest]
    assert len(holding) == 1
    index = holding[0]
    record = index.latest[key]
    assert record == ("payload", 7.0)
    assert key not in index.holders  # the flood reached the whole group
    assert index._expiry_heap == [(7.0, key)]

    # A hit moves the expiry at the member it lands on, nowhere else.
    network.advance(1.0)
    member = next(iter(index.position))
    hit = index.query(key, member, network.simulation.now)
    assert hit == ("payload", 8.0) and hit is not record
    assert index.latest[key] is record
    assert index.own == {key: {0: hit}}
    assert index.holders[key] == (1 << len(index.position)) - 2
    assert sorted(index._expiry_heap) == [(7.0, key), (8.0, key)]
