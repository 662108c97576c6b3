"""Differential test: the bulk index preload and the block-served origin
draw against the per-key and per-call bodies ISSUE 22 replaced.

``PdhtNetwork.preload_index_all`` groups keys by replica group and hands
every member's store one ``TtlKeyStore.put_all`` of the group's shared
records; it replaced ``preload_index`` called per key (key -> member ->
``insert``), kept here together with the two strategy loops that drove
it (verbatim but for the node's ``index_insert`` pass-through, which
went). Every store must end up the same: its records (key, value and
expiry, in insertion order), the expiry heap as a list (its pop order)
and the counters — with expired entries at the head of some heaps, and
after churn took members offline.

``PdhtNetwork.random_online_peer`` draws from a ``BoundedStream`` over
the "origins" generator; it replaced one scalar ``rng.integers`` per
call, kept here as ``reference_random_online_peer``.

Mutations run against the new code, each caught by the test named:

* keys grouped by responsible member before key order (a group's store
  sees one member's keys, then the next member's) —
  ``test_preload_all_equals_one_preload_per_key``;
* only the first member of a group filled — the same test (store by
  store, heaps included);
* ``put_all`` purging once up front even for a batch expiring at
  ``now`` (``keyTtl = 0``) — the same test
  (``test_ttl_store_equivalence.py`` holds the store alone to it);
* the origin drawn over all peers, or over the online peers in another
  order, or the "origins" generator read without settling —
  ``test_origins_equal_scalar_draws_under_churn``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.pdht.strategies import SimulatedStrategy, key_name


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
def reference_preload_index(self: PdhtNetwork, key: str, value: object) -> None:
    now = self.simulation.now
    responsible = self.dht.responsible_for(key)
    group = self.group_of(responsible)
    for member in group.members:
        self.nodes[member].store.insert(key, value, now)


def reference_prepare_index_all(self: SimulatedStrategy) -> None:
    for i in range(self.params.n_keys):
        reference_preload_index(self.network, key_name(i), f"value-{i}")


def reference_prepare_partial_ideal(self: SimulatedStrategy, max_rank) -> None:
    for rank in range(1, max_rank + 1):
        key_index = self.workload.key_for_rank(rank)
        reference_preload_index(
            self.network, key_name(key_index), f"value-{key_index}"
        )


def reference_random_online_peer(self: PdhtNetwork, rng) -> int:
    online = self.overlay.population.sorted_online_ids()
    if not online:
        raise ParameterError("no peers online")
    return online[int(rng.integers(0, len(online)))]


# ----------------------------------------------------------------------
def _stores(network: PdhtNetwork) -> dict:
    return {
        member: (
            list(node.store.records.items()),
            list(node.store._expiry_heap),
            node.store.insertions,
            node.store.evictions_expired,
        )
        for member, node in network.nodes.items()
    }


PARAMS = ScenarioParameters(
    num_peers=60, n_keys=90, storage_per_peer=6, replication=5,
    query_freq=1.0 / 30.0,
)


def _network(key_ttl: float, seed: int) -> PdhtNetwork:
    config = PdhtConfig(
        key_ttl=key_ttl, replication=5, storage_per_peer=6, walkers=4,
    )
    return PdhtNetwork(PARAMS, config, seed=seed, num_active_peers=23)


@settings(max_examples=30, deadline=None)
@given(
    key_ttl=st.sampled_from([0.0, 1.0, 3.0, math.inf]),
    seed=st.integers(0, 50),
    batches=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0]),  # rounds before it
            st.lists(st.integers(0, 89), max_size=40),  # its keys
            st.lists(st.integers(0, 59), max_size=5),  # peers going offline
        ),
        min_size=1, max_size=4,
    ),
)
def test_preload_all_equals_one_preload_per_key(key_ttl, seed, batches):
    old, new = (_network(key_ttl, seed) for _ in range(2))
    for rounds, keys, offline in batches:
        items = {f"key-{k:06d}": f"value-{k}" for k in keys}
        for network in (old, new):
            network.advance(rounds)  # earlier batches expire: purge guard
            for peer in offline:
                network.population.set_online(peer, False)
        try:
            for key, value in items.items():
                reference_preload_index(old, key, value)
        except Exception as error:  # the whole DHT offline
            with pytest.raises(type(error)):
                new.preload_index_all(items)
            return
        new.preload_index_all(items)
        assert _stores(new) == _stores(old)
    # ... and the one-item case
    reference_preload_index(old, "key-000007", "again")
    new.preload_index("key-000007", "again")
    assert _stores(new) == _stores(old)
    assert new.metrics.totals_by_category() == old.metrics.totals_by_category()


@pytest.mark.parametrize("strategy", ["indexAll", "partialIdeal"])
def test_strategy_preloads_equal_the_per_key_loops(strategy, small_params):
    new = SimulatedStrategy(small_params, strategy=strategy, seed=5)
    old = SimulatedStrategy(small_params, strategy=strategy, seed=5)
    new.prepare()
    if strategy == "indexAll":
        reference_prepare_index_all(old)
    else:
        max_rank = new.policy.preloaded_ranks
        reference_prepare_partial_ideal(old, max_rank)
        assert 0 < max_rank < small_params.n_keys
    stores = _stores(new.network)
    assert stores == _stores(old.network)
    assert sum(len(entries) for entries, *_ in stores.values()) > 0


# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 50),
    run=st.lists(
        st.tuples(st.integers(0, 59), st.booleans(), st.integers(0, 40)),
        min_size=1, max_size=12,
    ),
)
def test_origins_equal_scalar_draws_under_churn(seed, run):
    """Origins between liveness flips — the online set changes size, so
    the bound of the draw does — with the generator read at the end."""
    old, new = (_network(3.0, seed) for _ in range(2))
    scalar = old.streams.get("origins")
    for peer, online, draws in run:
        for network in (old, new):
            network.population.set_online(peer, online)
        if not new.population.sorted_online_ids():
            with pytest.raises(ParameterError):
                new.random_online_peer()
            continue
        expected = [reference_random_online_peer(old, scalar) for _ in range(draws)]
        assert [new.random_online_peer() for _ in range(draws)] == expected
    assert new.origins.rng is new.streams.get("origins")
    assert (
        new.streams.get("origins").bit_generator.state
        == scalar.bit_generator.state
    )
    assert new.random_online_peer() == reference_random_online_peer(old, scalar)
