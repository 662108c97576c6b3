"""Differential test: the bulk index preload and the block-served origin
draw against the per-key and per-call bodies ISSUE 22 replaced.

``PdhtNetwork.preload_index_all`` groups keys by replica group and hands
each group's index one ``ReplicaGroupIndex.write_all`` of the group's
records; it replaced ``preload_index`` called per key (key -> member ->
``insert``), kept here together with the two strategy loops that drove
it (verbatim but for the node's ``index_insert`` pass-through, which
went, and for running on a bare network: a strategy now preloads as it
is built), on one ``TtlKeyStore`` per member (``test_ttl_cache.py``,
the store each member once held). Every member's live view (key ->
``(value, expiry)``) must end up the same, and the counters — with
expired entries due at some purge, and after churn took members
offline.

``PdhtNetwork.random_online_peer`` draws from a ``BoundedStream`` over
the "origins" generator; it replaced one scalar ``rng.integers`` per
call, kept here as ``reference_random_online_peer``.

Mutations run against the new code, each caught by the test named:

* only the first member of a group filled (``holders`` set to its bit)
  — ``test_preload_all_equals_one_preload_per_key``;
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

from test_group_index import member_views
from test_ttl_cache import TtlKeyStore, insert


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
def reference_preload_index(self: PdhtNetwork, key: str, value: object) -> None:
    now = self.simulation.now
    responsible = self.dht.responsible_for(key)
    group = self.group_of(responsible)
    for member in group.members:
        insert(self.stores[member], key, value, now)


def reference_prepare_index_all(network: PdhtNetwork, n_keys: int) -> None:
    for i in range(n_keys):
        reference_preload_index(network, key_name(i), f"value-{i}")


def reference_prepare_partial_ideal(network: PdhtNetwork, workload, max_rank) -> None:
    for rank in range(1, max_rank + 1):
        key_index = workload.key_for_rank(rank)
        reference_preload_index(
            network, key_name(key_index), f"value-{key_index}"
        )


def reference_random_online_peer(self: PdhtNetwork, rng) -> int:
    online = self.overlay.population.sorted_online_ids()
    if not online:
        raise ParameterError("no peers online")
    return online[int(rng.integers(0, len(online)))]


# ----------------------------------------------------------------------
def _with_stores(network: PdhtNetwork) -> PdhtNetwork:
    """``network`` with the stores the reference writes: an empty
    ``TtlKeyStore`` per member."""
    network.stores = {
        member: TtlKeyStore(network.config.key_ttl)
        for member in network.dht.members()
    }
    return network



PARAMS = ScenarioParameters(
    num_peers=60, n_keys=90, storage_per_peer=6, replication=5,
    query_freq=1.0 / 30.0,
)


def _network(key_ttl: float, seed: int) -> PdhtNetwork:
    config = PdhtConfig(key_ttl=key_ttl, replication=5, walkers=4)
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
    old, new = _with_stores(_network(key_ttl, seed)), _network(key_ttl, seed)
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
        assert member_views(new) == member_views(old)
        # A hit gives the member it lands on a record of its own, which
        # the next preload of the key must replace.
        if items:
            for network in (old, new):
                network.advance(0.5)
            key = next(iter(items))
            member = new.dht.responsible_for(key)
            now = new.simulation.now
            assert new._index_of[member].query(key, member, now) == (
                old.stores[member].query(key, now)
            )
            assert member_views(new) == member_views(old)
    # ... and the one-item case
    reference_preload_index(old, "key-000007", "again")
    new.preload_index_all({"key-000007": "again"})
    assert member_views(new) == member_views(old)
    assert new.metrics.totals_by_category() == old.metrics.totals_by_category()


@pytest.mark.parametrize("strategy", ["indexAll", "partialIdeal"])
def test_strategy_preloads_equal_the_per_key_loops(strategy, small_params):
    new = SimulatedStrategy(small_params, strategy=strategy, seed=5)
    # The substrate the strategy built, before it preloaded anything.
    old = _with_stores(PdhtNetwork(
        small_params, new.config, seed=5,
        num_active_peers=new.policy.num_members,
    ))
    if strategy == "indexAll":
        reference_prepare_index_all(old, small_params.n_keys)
    else:
        max_rank = new.policy.preloaded_ranks
        reference_prepare_partial_ideal(old, new.workload, max_rank)
        assert 0 < max_rank < small_params.n_keys
    views = member_views(new.network)
    assert views == member_views(old)
    assert sum(len(view) for view in views.values()) > 0


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
