"""The index plane allocates once per write, not once per member.

A replica-group write — an ``indexAll`` / ``partialIdeal`` preload, a
miss's insertion, a proactive update — builds one immutable
``(value, expires_at)`` record per key and, for a finite expiry, one
``(expires_at, key)`` heap record, and every member it reaches holds
*those objects*. An ``inf`` expiry gets no heap record at all.
``test_ttl_store_equivalence.py`` holds the store to the one it replaced;
these tests pin the sharing itself, which equality cannot see.
"""

from __future__ import annotations

import math

from repro.analysis.parameters import ScenarioParameters
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.pdht.ttl_cache import TtlKeyStore

PARAMS = ScenarioParameters(
    num_peers=60, n_keys=90, storage_per_peer=6, replication=5,
    query_freq=1.0 / 30.0,
)
ITEMS = {f"key-{k:06d}": f"value-{k}" for k in range(90)}


def _network(key_ttl: float) -> PdhtNetwork:
    config = PdhtConfig(
        key_ttl=key_ttl, replication=5, storage_per_peer=6, walkers=4,
    )
    return PdhtNetwork(PARAMS, config, seed=4, num_active_peers=23)


def test_preload_shares_records_not_maps():
    network = _network(math.inf)
    network.preload_index_all(ITEMS)
    placed = 0
    for group in network._groups:
        stores = [network.nodes[member].store for member in group.members]
        first = stores[0].records
        for store in stores:
            assert list(store.records) == list(first)
            assert all(store.records[key] is first[key] for key in first)
        # One dict per member: a hit at one must not move the others.
        assert len({id(store.records) for store in stores}) == len(stores)
        placed += len(first)
    assert placed == len(ITEMS)
    assert all(record == (ITEMS[key], math.inf)
               for node in network.nodes.values()
               for key, record in node.store.records.items())


def test_an_inf_store_keeps_no_heap_record():
    network = _network(math.inf)
    network.preload_index_all(ITEMS)
    key = next(iter(ITEMS))
    network._insert_into_index(min(network.dht.members), key, "v2")
    for _ in range(3):
        network.advance(1.0)
        network.query(network.random_online_peer(), key)
    assert all(not node.store._expiry_heap for node in network.nodes.values())

    store = TtlKeyStore(math.inf)
    store.insert("k", "v", now=0.0)
    store.query("k", now=4.0)
    assert store._expiry_heap == [] and store.records == {"k": ("v", math.inf)}


def test_one_insert_shares_one_record_and_one_heap_record():
    network = _network(5.0)
    network.advance(2.0)
    key = "key-000042"
    network._insert_into_index(min(network.dht.members), key, "payload")
    holders = [node.store for node in network.nodes.values()
               if key in node.store]
    assert len(holders) >= 2
    record = holders[0].records[key]
    assert record == ("payload", 7.0)
    heap_records = [
        item for store in holders for item in store._expiry_heap
        if item[1] == key
    ]
    assert len(heap_records) == len(holders)
    assert all(store.records[key] is record for store in holders)
    assert all(item is heap_records[0] for item in heap_records)
    assert heap_records[0] == (7.0, key)

    # A hit moves the expiry at the member it lands on, nowhere else.
    network.advance(1.0)
    hit = holders[0].query(key, network.simulation.now)
    assert hit == ("payload", 8.0) and hit is not record
    assert all(store.records[key] is record for store in holders[1:])
