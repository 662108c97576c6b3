"""Tests for the wired-up PDHT network (the Section 5.1 query path)."""

from __future__ import annotations

import math
from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import STRATEGY_NAMES
from repro.errors import ParameterError, RoutingError
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork, QueryOutcome
from repro.pdht.strategies import SimulatedStrategy, StrategyReport, key_name
from repro.sim.metrics import MessageCategory

from test_group_index import member_views
from test_ttl_cache import TtlKeyStore


@pytest.fixture
def tiny_params():
    return ScenarioParameters(
        num_peers=120,
        n_keys=200,
        storage_per_peer=20,
        replication=10,
        query_freq=1.0 / 30.0,
    )


@pytest.fixture
def network(tiny_params):
    config = PdhtConfig(key_ttl=50.0, replication=10, walkers=8)
    net = PdhtNetwork(tiny_params, config, seed=3, num_active_peers=40)
    net.publish("hot", "payload")
    return net


class TestConstruction:
    def test_active_peers_default_from_selection_model(self, tiny_params):
        net = PdhtNetwork(tiny_params, PdhtConfig(key_ttl=100.0, replication=10))
        assert 2 <= net.dht.size <= tiny_params.num_peers

    def test_explicit_active_peers(self, network):
        assert network.dht.size == 40

    def test_invalid_active_peers_rejected(self, tiny_params):
        with pytest.raises(ParameterError):
            PdhtNetwork(tiny_params, PdhtConfig(), num_active_peers=1)
        with pytest.raises(ParameterError):
            PdhtNetwork(tiny_params, PdhtConfig(), num_active_peers=10_000)

    def test_replica_groups_partition_members(self, network):
        covered = sorted(
            member for group in network._groups for member in group.members
        )
        assert covered == sorted(network.dht._members)

    def test_replica_groups_sized_near_repl(self, network):
        for group in network._groups:
            assert 2 <= len(group.members) <= 2 * network.config.replication

    def test_every_member_has_node(self, network):
        assert set(network._index_of) == set(network.dht._members)
        for group, index in zip(network._groups, network.indexes):
            assert list(index.position) == group.members
            assert all(network._index_of[m] is index for m in group.members)

    def test_group_of_non_member_rejected(self, network):
        outsider = next(
            p for p in range(len(network.population))
            if p not in network.dht._members
        )
        with pytest.raises(ParameterError):
            network.group_of(outsider)


class TestQueryPath:
    def test_first_query_broadcasts_and_inserts(self, network):
        outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.found
        assert not outcome.via_index
        assert outcome.walk_messages >= 0
        assert outcome.insert_messages > 0

    def test_second_query_hits_index(self, network):
        network.query(network.random_online_peer(), "hot")
        outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.via_index
        assert outcome.walk_messages == 0
        assert outcome.insert_messages == 0

    def test_index_hit_is_cheap(self, network):
        network.query(network.random_online_peer(), "hot")
        hit = network.query(network.random_online_peer(), "hot")
        miss_cost = 120 / 10  # numPeers/repl: order of the broadcast cost
        assert hit.total_messages < miss_cost * 3

    def test_nonexistent_key_not_inserted(self, network):
        outcome = network.query(network.random_online_peer(), "ghost")
        assert not outcome.found
        assert outcome.insert_messages == 0
        assert network.distinct_indexed_keys() == 0

    def test_key_expires_after_quiet_ttl(self, network):
        network.query(network.random_online_peer(), "hot")
        assert network.distinct_indexed_keys() >= 1
        network.advance(network.config.key_ttl + 1.0)
        assert network.distinct_indexed_keys() == 0

    def test_queries_keep_key_alive(self, network):
        network.query(network.random_online_peer(), "hot")
        for _ in range(5):
            network.advance(network.config.key_ttl * 0.6)
            outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.via_index

    def test_policy_counters_track_path(self, network):
        # The outcome fields a strategy's counters are tallied from.
        miss = network.query(network.random_online_peer(), "hot")
        hit = network.query(network.random_online_peer(), "hot")
        ghost = network.query(network.random_online_peer(), "ghost")
        assert (miss.via_index, miss.found, miss.inserted) == (False, True, True)
        assert (hit.via_index, hit.found, hit.inserted) == (True, True, False)
        assert (ghost.via_index, ghost.found, ghost.inserted) == (
            False, False, False
        )

    def test_offline_origin_rejected(self, network):
        from repro.errors import OfflinePeerError

        origin = network.random_online_peer()
        network.population.set_online(origin, False)
        with pytest.raises(OfflinePeerError):
            network.query(origin, "hot")


class TestMessageAccounting:
    def test_categories_populated(self, network):
        network.query(network.random_online_peer(), "hot")
        network.advance(5.0)
        totals = network.metrics.totals_by_category()
        assert totals[MessageCategory.INDEX_SEARCH] > 0
        assert totals[MessageCategory.MAINTENANCE] > 0

    def test_maintenance_rate_matches_env(self, network):
        network.metrics.reset()
        network.advance(100.0)
        measured = network.metrics.total(MessageCategory.MAINTENANCE) / 100.0
        expected = network.maintenance.expected_rate()
        assert measured == pytest.approx(expected, rel=0.15)

    def test_disable_maintenance_clears_the_round_hook(self, network):
        network.disable_maintenance()
        assert network.simulation.round_hook is None
        network.advance(3.0)
        assert network.simulation.processed_events == 0

    def test_disable_maintenance_stops_probes(self, network):
        network.disable_maintenance()
        network.metrics.reset()
        network.advance(50.0)
        assert network.metrics.total(MessageCategory.MAINTENANCE) == 0.0


class TestAdvance:
    def test_nan_rounds_rejected(self, network):
        network.advance(3.0)
        with pytest.raises(ParameterError):
            network.advance(math.nan)
        assert network.simulation.now == 3.0

    def test_infinite_rounds_rejected(self, network):
        # Maintenance off and no churn, so nothing recurs and the queue
        # would drain: only the check stops the clock reaching inf.
        network.disable_maintenance()
        with pytest.raises(ParameterError):
            network.advance(math.inf)
        assert network.simulation.now == 0.0


class TestUpdatesAndPreload:
    def test_preload_makes_key_hittable(self, network):
        network.preload_index_all({"hot": "payload"})
        outcome = network.query(network.random_online_peer(), "hot")
        assert outcome.via_index

    def test_preload_counts_no_messages(self, network):
        before = network.metrics.total()
        network.preload_index_all({"hot": "payload"})
        assert network.metrics.total() == before

    def test_proactive_update_costs_lookup_plus_flood(self, network):
        network.preload_index_all({"hot": "payload"})
        messages = network.proactive_update("hot", "payload-v2")
        assert messages >= network.config.replication * 0.5


class TestChurnIntegration:
    def test_the_clock_runs_the_network_churn(self, tiny_params):
        config = PdhtConfig(key_ttl=100.0, replication=10, walkers=8)
        churn = ChurnConfig(mean_session=20.0, mean_offline=10.0)
        net = PdhtNetwork(
            tiny_params, config, seed=5, num_active_peers=60, churn=churn
        )
        assert net.simulation.churn is net.churn
        before = net.population.liveness_epoch
        net.advance(10.0)
        applied = net.population.liveness_epoch - before
        assert applied > 0
        # Every transition applied and one sweep a round.
        assert net.simulation.processed_events == applied + 10

    def test_network_survives_churn(self, tiny_params):
        config = PdhtConfig(key_ttl=100.0, replication=10, walkers=8)
        churn = ChurnConfig(mean_session=300.0, mean_offline=100.0)
        net = PdhtNetwork(
            tiny_params, config, seed=5, num_active_peers=60, churn=churn
        )
        net.publish("hot", "v")
        answered = 0
        for _ in range(30):
            net.advance(10.0)
            try:
                origin = net.random_online_peer()
            except ParameterError:
                continue
            outcome = net.query(origin, "hot")
            answered += int(outcome.found)
        # Replication 10 over 120 peers at 75% availability: the key should
        # be found nearly always.
        assert answered >= 25


# ----------------------------------------------------------------------
# The one-pass query and round loop against the bodies they replaced
# ----------------------------------------------------------------------
def reference_gateway_for(self, peer_id):
    """``GatewayCache.gateway_for`` as it was, verbatim: no answer memo."""
    self.population.require_online(peer_id)
    if self.dht.is_member(peer_id):
        return peer_id  # and online, just checked

    # A cached gateway stays a member: the DHT has no leave.
    cache = self._cache_for(peer_id)
    recent = True
    for gateway in reversed(cache):
        if self.population.is_online(gateway):
            if not recent:  # the most recent one stays where it is
                cache.move_to_end(gateway)
            return gateway
        recent = False

    # Re-bootstrap: probe members in random order until one answers.
    candidates = self.dht.members()
    order = self.rng.permutation(len(candidates))
    for idx in order:
        candidate = candidates[int(idx)]
        self.dht.metrics.count(MessageCategory.MEMBERSHIP, 2)
        if self.population.is_online(candidate):
            self._remember(peer_id, candidate)
            return candidate
    raise RoutingError("no online DHT member reachable for bootstrap")


def reference_gateway(self, origin):
    """``PdhtNetwork._gateway`` as it was, calling the gateway above."""
    try:
        return reference_gateway_for(self.gateways, origin)
    except RoutingError:
        return None


def reference_query(self, origin, key):
    """``PdhtNetwork.query`` as it was, verbatim but for the gateway
    call: three origin checks, a ``LookupResult`` and one ``put`` per
    member an insert reaches."""
    now = self.simulation.now
    self.population.require_online(origin)

    gateway = reference_gateway(self, origin)
    index_messages = 0
    flood_messages = 0

    hit_value = None
    via_index = False

    if gateway is not None:
        lookup = self.dht.lookup(gateway, key)
        index_messages += lookup.messages
        responsible = lookup.responsible
        stores = self.stores
        record = stores[responsible].query(key, now)
        if record is not None:
            hit_value, via_index = record[0], True
        else:
            # Replica-subnetwork flood (Eq. 16 surcharge): the first
            # replica it reaches, after the responsible peer itself,
            # that holds an unexpired record answers.
            reached, msgs = self.group_of(responsible).flood(responsible)
            flood_messages += msgs
            for member in reached[1:]:
                held = stores[member].records.get(key)
                if held is not None and held[1] > now:
                    record = stores[member].query(key, now)
                    hit_value, via_index = record[0], True
                    break

    if via_index:
        return QueryOutcome(
            key=key,
            found=True,
            via_index=True,
            index_messages=index_messages,
            flood_messages=flood_messages,
            walk_messages=0,
            insert_messages=0,
            inserted=False,
            value=hit_value,
        )

    # Miss: broadcast search the unstructured overlay.
    walk = self.walker.search(origin, key)
    insert_messages = 0
    inserted = walk.found and gateway is not None
    if inserted:
        # The insert routes to the responsible peer again. Nothing
        # since the search's route can move it, so it is that route,
        # counted a second time.
        self.metrics.count(MessageCategory.INDEX_SEARCH, lookup.messages)
        insert_messages = reference_insert_into_index(self, lookup, walk.value)
    return QueryOutcome(
        key=key,
        found=walk.found,
        via_index=False,
        index_messages=index_messages,
        flood_messages=flood_messages,
        walk_messages=walk.messages,
        insert_messages=insert_messages,
        inserted=inserted,
        value=walk.value,
    )


def reference_write(self, responsible, key, value, now):
    """``PdhtNetwork._write`` as it was, verbatim: one ``put`` per member
    the flood reaches, into the member's own store."""
    reached, messages = self._group_of[responsible].flood(responsible)
    stores = self.stores
    expires_at = now + stores[responsible].ttl
    record = (value, expires_at)
    heap_record = (expires_at, key)
    for member in reached:
        stores[member].put(key, record, heap_record, now)
    return messages


def reference_distinct_indexed_keys(self):
    """``PdhtNetwork.distinct_indexed_keys`` as it was, verbatim."""
    now = self.simulation.now
    keys: set[str] = set()
    for store in self.stores.values():
        store.purge_expired(now)
        keys.update(store.keys())
    return len(keys)


def reference_insert_into_index(self, lookup, value):
    """``PdhtNetwork._insert_into_index`` as it was, verbatim."""
    now = self.simulation.now
    key = lookup.key
    responsible = lookup.responsible
    reached, flood_msgs = self.group_of(responsible).flood(responsible)
    stores = self.stores
    expires_at = now + stores[responsible].ttl
    record = (value, expires_at)
    heap_record = (expires_at, key)
    for member in reached:
        stores[member].put(key, record, heap_record, now)
    return lookup.messages + flood_msgs


def reference_answer(self, report, origin, key, rank):
    """``SimulatedStrategy._answer`` as it was, verbatim."""
    report.queries += 1
    if rank > self.policy.index_ranks:
        found = self.network.walker.search(origin, key).found
    else:
        outcome = self._query(origin, key)
        if outcome.via_index:
            report.index_hits += 1
            report.answered += 1
            return
        if key in self._inserted:
            report.reinsertions += 1
        else:
            report.cold_misses += 1
        if outcome.inserted:
            self._inserted.add(key)
            report.insertions += 1
        found = outcome.found
    if found:
        report.answered += 1
    else:
        report.unresolved += 1


def reference_round(self, report):
    """One round of ``SimulatedStrategy.run``'s loop as it was (window and
    timing left out), yielding after each index query: an origin drawn
    per query from the online set, and one ``_answer`` call per query."""
    rate = self.params.network_query_rate
    updates = self.policy.updates_per_round(self.params.update_freq)
    online = self.network.population.sorted_online_ids
    self.network.advance(1.0)
    now = self.network.simulation.now
    if now >= self._next_refresh:
        self._refresh_content()
        report.content_refreshes += 1
    count = int(self._rng.poisson(rate * self.workload.rate_multiplier(now)))
    batch = self.workload.draw(now, count)
    if batch and online():
        for rank, key_index in batch:
            reference_answer(
                self, report, self.network.random_online_peer(),
                key_name(key_index), rank,
            )
            if rank <= self.policy.index_ranks:
                yield
    self._update_debt += updates
    while self._update_debt >= 1.0:
        self._update_debt -= 1.0
        self._apply_random_update()


def _state(network):
    """What a query can change, in order where order is observable."""
    return (
        list(network.metrics.totals_by_category().items()),
        member_views(network),
        {peer: list(cache) for peer, cache in network.gateways._caches.items()},
        [network.streams.get(name).bit_generator.state
         for name in ("walks", "origins", "gateway")],
    )


def _reference(network):
    """``network`` as the replaced bodies found it: one ``TtlKeyStore``
    per member (``network.stores``) holding the member's live records —
    what the strategy preloaded — and its writes and index sizing
    through the replaced bodies."""
    now = network.simulation.now
    stores = {}
    for member, view in member_views(network).items():
        store = stores[member] = TtlKeyStore(network.config.key_ttl)
        for key, record in view.items():
            store.put(key, record, (record[1], key), now)
    network.stores = stores
    network._write = MethodType(reference_write, network)
    network.distinct_indexed_keys = MethodType(
        reference_distinct_indexed_keys, network
    )


def _join(network, peer):
    """A member joining mid-run, with an empty store, in regrouped
    replica groups (the network itself never grows its DHT). The
    reference keeps its members' stores; the network under test writes
    each member's live records into its new group's index, at that
    member alone."""
    views = member_views(network)
    network.dht.join(peer)
    stores = getattr(network, "stores", None)
    if stores is not None:
        stores[peer] = TtlKeyStore(network.config.key_ttl)
    for table in (network._groups, network._group_of, network.indexes,
                  network._index_of):
        table.clear()
    network._build_replica_groups(list(network.dht.members()))
    if stores is None:
        now = network.simulation.now
        for member, view in views.items():
            for key, record in view.items():
                network._index_of[member].write(key, record, (member,), now)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.sampled_from([(36, 40, 4), (48, 60, 6)]),
    strategy=st.sampled_from(STRATEGY_NAMES),
    key_ttl=st.sampled_from([0.0, 2.5, math.inf]),
    churned=st.booleans(),
    refresh=st.sampled_from([None, 2.0]),
    joins=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_query_and_round_equal_the_replaced_bodies(
    shape, strategy, key_ttl, churned, refresh, joins, seed
):
    """Side by side over six rounds: every query's origin, key and
    ``QueryOutcome``, and after it the metrics, every member's live index
    records, every gateway cache and the "walks", "origins" and
    "gateway" stream states; after each round the report. The reference
    runs on one ``TtlKeyStore`` per member, as the network did before
    its replica groups held their members' records once. Before the
    third round and each after it, one of ``joins`` picks an origin seen
    so far that is not a member, and it joins the DHT. The reference
    routes with ``lookup``, whose route the P-Grid route oracle holds.

    Mutations run against the new code, each caught here:

    * the gateway memo keyed on the liveness epoch alone (a join makes a
      peer its own gateway without a flip);
    * an insert that writes the responsible member only, not every
      member the flood reaches;
    * an insert whose heap record is keyed at the write time, not the
      expiry (the record outlives its purge: the index size shows it);
    * an origin drawn from the previous round's view (the view taken
      before the round's clock advance; under churn);
    * a hit at a flooded replica reporting no flood messages.

    A miss at a replica group asks its index, whose scan
    ``test_group_index.py`` holds to the replaced loop over every
    member, under writes that miss members too.
    """
    num_peers, n_keys, repl = shape
    params = ScenarioParameters(
        num_peers=num_peers, n_keys=n_keys, storage_per_peer=10,
        replication=repl, query_freq=0.25,
    )
    config = PdhtConfig.from_scenario(params, key_ttl=key_ttl, walkers=4)
    churn = ChurnConfig(mean_session=6.0, mean_offline=3.0) if churned else None
    new, old = (
        SimulatedStrategy(
            params, config, strategy=strategy, seed=seed, churn=churn,
            content_refresh_period=refresh,
        )
        for _ in range(2)
    )
    _reference(old.network)
    queried = PdhtNetwork.query.__get__(new.network)
    answers, asked = [], []

    def reference(origin, key):
        answers.append((origin, key, reference_query(old.network, origin, key)))
        return answers[-1][2]

    def spy(origin, key):
        asked.append(origin)
        outcome = queried(origin, key)
        next(rounds)
        assert (origin, key, outcome) == answers.pop()
        assert _state(new.network) == _state(old.network)
        return outcome

    for side, query in ((new, spy), (old, reference)):
        side.network.query = query
        if refresh is None:
            side._query = query
    for index in range(6):
        outsiders = [p for p in asked if not new.network.dht.is_member(p)]
        if 2 <= index < 2 + len(joins) and outsiders:
            joiner = outsiders[joins[index - 2] % len(outsiders)]
            for side in (new, old):
                _join(side.network, joiner)
        expected = StrategyReport(
            strategy=strategy, params=params, duration=1.0
        )
        old._stale_hits = 0
        rounds = reference_round(old, expected)
        report = new.run(1.0)
        for _ in rounds:
            raise AssertionError("the replaced loop answered more queries")
        expected.messages_by_category = old.network.metrics.totals_by_category()
        expected.mean_index_size = float(old.network.distinct_indexed_keys())
        expected.stale_hits = old._stale_hits
        assert report == expected
        assert _state(new.network) == _state(old.network)
