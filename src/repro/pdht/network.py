"""The wired-up PDHT network: Section 5's algorithm end to end.

One :class:`PdhtNetwork` owns the full stack:

* a peer population with optional churn;
* the unstructured overlay carrying content replicas (random replication,
  factor ``repl``), searched by k-walker random walks;
* a P-Grid DHT joined by
  ``numActivePeers`` members ("only numActivePeers peers participate in
  building and maintaining a DHT" — Section 3.2);
* replica subnetworks of size ``repl``, each holding its members' TTL
  index stores once (:class:`~repro.pdht.ttl_cache.ReplicaGroupIndex`);
* probe-based routing maintenance charging the Eq. 8 traffic.

The query path is the paper's Section 5.1 verbatim:

1. route the query through the DHT to the responsible member;
2. if its TTL index answers, done (the hit resets the key's TTL);
3. otherwise flood the member's replica subnetwork (the ``repl * dup2``
   surcharge of Eq. 16) — the first replica the flood reaches that holds
   a live entry answers;
4. otherwise broadcast-search the unstructured overlay, and insert the
   resolved key into the index (DHT route + replica flood; the route is
   step 1's, counted again), where it will live for ``keyTtl`` quiet
   rounds.

The outcome says which of these happened; tallying them (hits, cold
misses, reinsertions) is the caller's business.

:meth:`PdhtNetwork.query` runs that path in one pass. The origin is
checked once, by the gateway lookup: :class:`~repro.net.bootstrap.GatewayCache`
memoises each peer's answer for one liveness epoch and membership
version, so a repeat asker is known online. One
:meth:`~repro.dht.pgrid.PGridDht.route` call yields the responsible
member and the hops (no result object). A miss at the responsible
member asks only the flooded members whose record can differ from its
own (:meth:`~repro.pdht.ttl_cache.ReplicaGroupIndex.scan`), and a miss's
insert floods the group again and writes the members it reaches with
one record (:meth:`~repro.pdht.ttl_cache.ReplicaGroupIndex.write`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import selection_members
from repro.dht.maintenance import RoutingMaintenance
from repro.dht.pgrid import PGridDht
from repro.errors import ParameterError, RoutingError, require_finite
from repro.net.bootstrap import GatewayCache
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.node import PeerId, PeerPopulation
from repro.pdht.config import PdhtConfig
from repro.pdht.ttl_cache import ReplicaGroupIndex
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.engine import Simulation
from repro.sim.metrics import MessageCategory, MessageMetrics
from repro.sim.rng import RandomStreams
from repro.unstructured.overlay import UnstructuredOverlay
from repro.unstructured.random_walk import RandomWalkSearch
from repro.unstructured.replication import ContentReplicator

__all__ = ["QueryOutcome", "PdhtNetwork"]


@dataclass(slots=True)
class QueryOutcome:
    """Result and cost breakdown of one PDHT query."""

    key: str
    found: bool
    via_index: bool
    index_messages: int
    flood_messages: int
    walk_messages: int
    insert_messages: int
    #: Whether the miss path inserted the resolved key into the index.
    inserted: bool
    #: The retrieved payload (None on a miss). Index hits may return a
    #: *stale* payload: under the selection algorithm there are no
    #: proactive updates, so an entry inserted before a content refresh
    #: serves the old value until it expires (Section 5.1).
    value: object = None

    @property
    def total_messages(self) -> int:
        return (
            self.index_messages
            + self.flood_messages
            + self.walk_messages
            + self.insert_messages
        )


class PdhtNetwork:
    """A complete query-adaptive partial DHT deployment."""

    def __init__(
        self,
        params: ScenarioParameters,
        config: Optional[PdhtConfig] = None,
        seed: int = 0,
        num_active_peers: Optional[int] = None,
        churn: Optional[ChurnConfig] = None,
    ) -> None:
        self.params = params
        self.config = config or PdhtConfig.from_scenario(params)
        self.streams = RandomStreams(seed)
        self.metrics = MessageMetrics()

        # --- population and unstructured plane -------------------------
        self.population = PeerPopulation(params.num_peers)
        self.overlay = UnstructuredOverlay(
            self.population,
            self.streams.get("topology"),
            degree=self.config.overlay_degree,
            metrics=self.metrics,
        )
        self.replicator = ContentReplicator(
            self.overlay, self.config.replication, self.streams.get("placement")
        )
        self.walker = RandomWalkSearch(
            self.overlay,
            self.streams.bounded("walks"),
            walkers=self.config.walkers,
            ttl=self.config.walk_ttl,
        )
        #: Query originators are drawn from the "origins" stream.
        self.origins = self.streams.bounded("origins")

        # --- structured plane ------------------------------------------
        if num_active_peers is None:
            num_active_peers = selection_members(params, self.config.key_ttl)
        if not 2 <= num_active_peers <= params.num_peers:
            raise ParameterError(
                f"num_active_peers must be in [2, {params.num_peers}], "
                f"got {num_active_peers}"
            )
        self.dht = PGridDht(self.population, self.metrics)
        member_ids = self.population.sample_online(
            self.streams.get("membership"), num_active_peers
        )
        self.dht.join_all(member_ids)

        # --- index plane: replica groups and their TTL indexes ----------
        self._groups: list[ReplicaNetwork] = []
        self._group_of: dict[PeerId, ReplicaNetwork] = {}
        #: Each replica group's TTL index, in ``_groups`` order.
        self.indexes: list[ReplicaGroupIndex] = []
        self._index_of: dict[PeerId, ReplicaGroupIndex] = {}
        self._build_replica_groups(member_ids)

        # --- maintenance and churn ---------------------------------------
        self.maintenance = RoutingMaintenance(self.dht, params.env)
        self.churn: Optional[ChurnProcess] = None
        if churn is not None:
            self.churn = ChurnProcess(
                self.population, churn, self.streams.get("churn")
            )
            self.churn.start()
        self.simulation = Simulation(self.churn, self.maintenance.run_sweep)

        # Gateway discovery for peers outside the DHT (Section 3.2: they
        # must know at least one online member). Cached per peer; misses
        # pay MEMBERSHIP probe messages.
        self.gateways = GatewayCache(self.dht, self.streams.get("gateway"))

    # ------------------------------------------------------------------
    def _build_replica_groups(self, member_ids: list[PeerId]) -> None:
        """Partition members (ring order) into replica groups of ~repl,
        each with an empty TTL index."""
        ordered = sorted(member_ids, key=self.dht.dht_id)
        size = self.config.replication
        rng = self.streams.get("replica-nets")
        for start in range(0, len(ordered), size):
            group_members = ordered[start : start + size]
            if len(group_members) < 2 and self._groups:
                # Tail smaller than 2: merge into the previous group.
                previous = self._groups.pop()
                group_members = previous.members + group_members
            group = ReplicaNetwork(
                self.population,
                group_members,
                rng,
                self.metrics,
                degree=self.config.replica_degree,
            )
            self._groups.append(group)
        for group in self._groups:
            index = ReplicaGroupIndex(group.members, self.config.key_ttl)
            self.indexes.append(index)
            for member in group.members:
                self._group_of[member] = group
                self._index_of[member] = index

    def group_of(self, member: PeerId) -> ReplicaNetwork:
        if member not in self._group_of:
            raise ParameterError(f"peer {member} is not a DHT member")
        return self._group_of[member]

    # ------------------------------------------------------------------
    # Content plane
    # ------------------------------------------------------------------
    def publish(self, key: str, value: object) -> None:
        """Make ``(key, value)`` findable by broadcast search (content
        replicas at ``repl`` random peers)."""
        self.replicator.place(key, value)

    def publish_all(self, items: dict[str, object]) -> None:
        self.replicator.place_all(items)

    def refresh_content_all(self, items: dict[str, object]) -> None:
        """Replace the content replicas of every key of ``items`` (article
        replacement: the Section 4 scenario replaces every article every
        24 h).

        Index entries are *not* touched — the selection algorithm has no
        proactive updates, so an already-indexed key keeps serving the old
        payload until it expires or is re-inserted after a miss. That
        staleness window is measured by the staleness experiment.
        """
        self.replicator.refresh_all(items)

    # ------------------------------------------------------------------
    # Query path (Section 5.1)
    # ------------------------------------------------------------------
    def query(self, origin: PeerId, key: str) -> QueryOutcome:
        """Answer one query from online peer ``origin``, in one pass.

        The gateway checks the origin: an answer memoised for this
        liveness epoch is one for an online peer, and anything else is
        derived after ``require_online``. Without an online DHT member
        only the broadcast path remains.
        """
        now = self.simulation.now
        try:
            gateway = self.gateways.gateway_for(origin)
        except RoutingError:
            gateway = None
        hops = flood_messages = 0
        if gateway is not None:
            responsible, hops = self.dht.route(gateway, key)
            index = self._index_of[responsible]
            record = index.query(key, responsible, now)
            if record is not None:
                return QueryOutcome(
                    key, True, True, hops, 0, 0, 0, False, record[0]
                )
            # Replica-subnetwork flood (Eq. 16 surcharge): the first
            # replica it reaches, after the responsible peer itself,
            # that holds an unexpired record answers.
            reached, flood_messages = self._group_of[responsible].flood(
                responsible
            )
            record = index.scan(key, reached, now)
            if record is not None:
                return QueryOutcome(
                    key, True, True, hops, flood_messages, 0, 0, False,
                    record[0],
                )

        # Miss: broadcast search the unstructured overlay.
        walk = self.walker.search(origin, key)
        if walk.found and gateway is not None:
            # The insert routes to the responsible peer again. Nothing
            # since the search's route can move it, so it is that route,
            # counted a second time.
            self.metrics.count(MessageCategory.INDEX_SEARCH, hops)
            insert_messages = hops + self._write(
                responsible, key, walk.value, now
            )
            return QueryOutcome(
                key, True, False, hops, flood_messages, walk.messages,
                insert_messages, True, walk.value,
            )
        return QueryOutcome(
            key, walk.found, False, hops, flood_messages, walk.messages, 0,
            False, walk.value,
        )

    def _write(
        self, responsible: PeerId, key: str, value: object, now: float
    ) -> int:
        """Write ``key`` at the responsible peer and replicate it through
        its replica subnetwork (the second cSIndx2 of Eq. 17); returns the
        flood's messages.

        One record serves every member the flood reaches (the
        responsible peer first): all of them follow the one ``keyTtl``.
        """
        reached, messages = self._group_of[responsible].flood(responsible)
        index = self._index_of[responsible]
        index.write(key, (value, now + index.ttl), reached, now)
        return messages

    def disable_maintenance(self) -> None:
        """Stop routing-table probing (the noIndex baseline runs no DHT)."""
        self.simulation.round_hook = None

    def proactive_update(self, key: str, value: object) -> int:
        """Apply one index update (Eq. 9): route to the responsible peer
        and disseminate through the replica subnetwork. Returns messages."""
        online = self.dht.online_members()
        if not online:
            return 0
        rng = self.streams.get("gateway")
        gateway = online[int(rng.integers(0, len(online)))]
        responsible, hops = self.dht.route(gateway, key)
        return hops + self._write(responsible, key, value, self.simulation.now)

    def preload_index_all(self, items: dict[str, object]) -> None:
        """Place index entries at their responsible replica groups without
        counting messages (steady-state pre-population of the indexAll and
        partial-ideal baselines; the paper's analysis starts from a built
        index).

        Every member of a group holds each of the group's keys, online
        or not: one record per key in the group's index.
        """
        now = self.simulation.now
        by_index: dict[ReplicaGroupIndex, list[tuple[str, object]]] = {}
        for key, value in items.items():
            index = self._index_of[self.dht.responsible_for(key)]
            by_index.setdefault(index, []).append((key, value))
        for index, pairs in by_index.items():
            expires_at = now + index.ttl
            index.write_all(
                {key: (value, expires_at) for key, value in pairs},
                expires_at, now,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def distinct_indexed_keys(self) -> int:
        """Distinct keys with at least one live index entry anywhere."""
        now = self.simulation.now
        keys: set[str] = set()
        for index in self.indexes:
            keys.update(index.live_keys(now))
        return len(keys)

    def random_online_peer(self) -> PeerId:
        """A uniformly random online peer (query originator), drawn from
        the "origins" stream."""
        online = self.population.sorted_online_ids()
        if not online:
            raise ParameterError("no peers online")
        return online[self.origins.draw(len(online))]

    def advance(self, rounds: float) -> None:
        """Run the round clock forward (churn, maintenance sweeps) by a
        finite number of rounds >= 0."""
        require_finite("rounds", rounds, 0.0)
        self.simulation.run(until=self.simulation.now + rounds)
