"""Differential test: ``GatewayCache.gateway_for`` against the body it
replaced.

A cache hit on a peer's most recent gateway used to pop it from the
cache's ``OrderedDict`` and insert it again at the end — where it already
was — and a DHT member asking for its own gateway had its liveness checked
twice. The old body is kept here verbatim (``reference_gateway_for``, with
the ``_remember`` it called) and driven side by side with the new one over
random runs of lookups, liveness flips and joins. The old cache kept its
own copy of the member set, and hit/miss/probe counters; the new one
reads the DHT's members and keeps no counters, so the reference runs on
a ``ReferenceCache`` holding the copy, and a join reaches both. They must
agree on every returned gateway or raised error, every peer's cache
*contents and order*, the membership messages and the bootstrap
generator's state.

Mutations of ``gateway_for``, each caught by
``test_gateway_for_equals_reference`` (the first and last also by
``test_a_hit_on_an_older_gateway_moves_it_to_the_end``):

* every hit left in place (no ``move_to_end``) — the cache order drifts
  from the reference's after a hit on an older gateway;
* the member shortcut taken before ``require_online`` — an offline member
  gets its own id instead of ``OfflinePeerError``;
* a hit on an older gateway moved to the front instead of the end.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dht.pgrid import PGridDht
from repro.errors import OfflinePeerError, RoutingError
from repro.net.bootstrap import GatewayCache
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics


# ----------------------------------------------------------------------
# The replaced bodies, verbatim but for the accounting: a probe's two
# messages are counted, not logged, one at a time as they were sent, and
# the hit/miss/probe counters are gone
# ----------------------------------------------------------------------
class ReferenceCache:
    """What the replaced body read: a copy of the member set beside the
    population, the metrics, the generator and the per-peer caches."""

    cache_size = GatewayCache.cache_size

    def __init__(self, population, members, metrics, rng):
        self.population = population
        self.members = set(members)
        self.metrics = metrics
        self.rng = rng
        self._caches = {}

    _cache_for = GatewayCache._cache_for


def reference_remember(self, peer_id, gateway):
    cache = self._cache_for(peer_id)
    cache.pop(gateway, None)
    cache[gateway] = None  # most-recently-used at the end
    while len(cache) > self.cache_size:
        cache.popitem(last=False)


def reference_gateway_for(self, peer_id):
    self.population.require_online(peer_id)
    if peer_id in self.members and self.population.is_online(peer_id):
        return peer_id

    cache = self._cache_for(peer_id)
    for gateway in reversed(cache):
        if (
            gateway in self.members
            and self.population.is_online(gateway)
        ):
            reference_remember(self, peer_id, gateway)
            return gateway

    # Re-bootstrap: probe members in random order until one answers.
    candidates = sorted(self.members)
    order = self.rng.permutation(len(candidates))
    for idx in order:
        candidate = candidates[int(idx)]
        self.metrics.count(MessageCategory.MEMBERSHIP)  # request
        self.metrics.count(MessageCategory.MEMBERSHIP)  # response
        if self.population.is_online(candidate):
            reference_remember(self, peer_id, candidate)
            return candidate
    raise RoutingError("no online DHT member reachable for bootstrap")


# ----------------------------------------------------------------------
#: Peers 0-4 may be DHT members, 5-7 never are: their lookups go through
#: the cache, and a handful of members flipping keeps it busy.
NUM_PEERS = 8
MEMBERS = st.frozensets(st.integers(0, 4), min_size=1)


def build_reference(members, seed):
    population = PeerPopulation(NUM_PEERS)
    metrics = MessageMetrics()
    rng = np.random.Generator(np.random.PCG64(seed))
    cache = ReferenceCache(population, members, metrics, rng)
    return population, metrics, cache


def build(members, seed):
    population = PeerPopulation(NUM_PEERS)
    metrics = MessageMetrics()
    dht = PGridDht(population, metrics)
    dht.join_all(sorted(members))
    metrics.reset()  # the joins' messages, which the reference never sent
    cache = GatewayCache(dht, np.random.Generator(np.random.PCG64(seed)))
    return population, metrics, cache


def lookup(gateway_for, cache, peer_id):
    try:
        return gateway_for(cache, peer_id)
    except (OfflinePeerError, RoutingError) as error:
        return type(error).__name__


def observable(cache, metrics):
    return (
        {peer: list(entries) for peer, entries in cache._caches.items()},
        list(metrics.totals_by_category().items()),
        cache.rng.bit_generator.state,
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, NUM_PEERS - 1)),
        st.tuples(st.just("lookup"), st.integers(5, NUM_PEERS - 1)),
        st.tuples(
            st.just("flip"), st.integers(0, NUM_PEERS - 1), st.booleans()
        ),
        st.tuples(st.just("flip"), st.integers(0, 4), st.booleans()),
        st.tuples(st.just("join"), st.integers(0, 4)),
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(
    members=MEMBERS,
    seed=st.integers(0, 2**16),
    run=operations,
)
def test_gateway_for_equals_reference(members, seed, run):
    ref_population, ref_metrics, ref = build_reference(members, seed)
    new_population, new_metrics, new = build(members, seed)
    for operation in run:
        if operation[0] == "lookup":
            expected = lookup(reference_gateway_for, ref, operation[1])
            actual = lookup(GatewayCache.gateway_for, new, operation[1])
            assert actual == expected
        elif operation[0] == "flip":
            ref_population.set_online(operation[1], operation[2])
            new_population.set_online(operation[1], operation[2])
        elif not new.dht.is_member(operation[1]):
            # A join is one MEMBERSHIP message, which the reference's
            # copy of the member set never sent.
            ref.members.add(operation[1])
            ref_metrics.count(MessageCategory.MEMBERSHIP)
            new.dht.join(operation[1])
        assert observable(new, new_metrics) == observable(ref, ref_metrics)


def test_a_hit_on_an_older_gateway_moves_it_to_the_end():
    """The property above is not vacuous: hits on the most recent gateway
    and on an older one both happen, and the order moves for the latter."""
    population, metrics, cache = build({0, 1, 2}, 0)
    cache._caches[7] = OrderedDict.fromkeys([0, 1, 2])
    assert cache.gateway_for(7) == 2  # the most recent: stays last
    assert list(cache._caches[7]) == [0, 1, 2]
    population.set_online(2, False)
    assert cache.gateway_for(7) == 1  # an older one: moves to the end
    assert list(cache._caches[7]) == [0, 2, 1]
    assert metrics.total() == 0  # both were hits: no probe
