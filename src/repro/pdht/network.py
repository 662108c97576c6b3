"""The wired-up PDHT network: Section 5's algorithm end to end.

One :class:`PdhtNetwork` owns the full stack:

* a peer population with optional churn;
* the unstructured overlay carrying content replicas (random replication,
  factor ``repl``), searched by k-walker random walks;
* a P-Grid DHT joined by
  ``numActivePeers`` members ("only numActivePeers peers participate in
  building and maintaining a DHT" — Section 3.2);
* per-member TTL index stores, grouped into replica subnetworks of size
  ``repl``;
* probe-based routing maintenance charging the Eq. 8 traffic.

The query path is the paper's Section 5.1 verbatim:

1. route the query through the DHT to the responsible member;
2. if its TTL store answers, done (the hit resets the key's TTL);
3. otherwise flood the member's replica subnetwork (the ``repl * dup2``
   surcharge of Eq. 16) — any replica holding a live entry answers;
4. otherwise broadcast-search the unstructured overlay, and insert the
   resolved key into the index (DHT route + replica flood), where it will
   live for ``keyTtl`` quiet rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import selection_members
from repro.dht.maintenance import RoutingMaintenance
from repro.dht.pgrid import PGridDht
from repro.errors import ParameterError, RoutingError
from repro.net.bootstrap import GatewayCache
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.messages import MessageLog
from repro.net.node import PeerId, PeerPopulation
from repro.pdht.config import PdhtConfig
from repro.pdht.node import PdhtNode
from repro.pdht.selection import SelectionPolicy
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
        metrics: Optional[MessageMetrics] = None,
    ) -> None:
        self.params = params
        self.config = config or PdhtConfig.from_scenario(params)
        self.streams = RandomStreams(seed)
        self.simulation = Simulation()
        self.metrics = metrics or MessageMetrics()
        self.log = MessageLog(self.metrics)

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
        self.dht = PGridDht(self.population, self.log)
        member_ids = self.population.sample_online(
            self.streams.get("membership"), num_active_peers
        )
        self.dht.join_all(member_ids)

        # --- index plane: TTL stores + replica groups -------------------
        self.nodes: dict[PeerId, PdhtNode] = {
            m: PdhtNode(m, self.config.key_ttl) for m in member_ids
        }
        self._groups: list[ReplicaNetwork] = []
        self._group_of: dict[PeerId, ReplicaNetwork] = {}
        self._build_replica_groups(member_ids)

        # --- maintenance and churn ---------------------------------------
        self.maintenance = RoutingMaintenance(self.dht, params.env)
        self._maintenance_controller = self.maintenance.attach(self.simulation)
        self.churn: Optional[ChurnProcess] = None
        if churn is not None:
            self.churn = ChurnProcess(
                self.simulation, self.population, churn, self.streams.get("churn")
            )
            self.churn.start()

        self.policy = SelectionPolicy(self.config.key_ttl)
        # Gateway discovery for peers outside the DHT (Section 3.2: they
        # must know at least one online member). Cached per peer; misses
        # pay MEMBERSHIP probe messages.
        self.gateways = GatewayCache(
            self.population,
            set(member_ids),
            self.log,
            self.streams.get("gateway"),
        )

    # ------------------------------------------------------------------
    def _build_replica_groups(self, member_ids: list[PeerId]) -> None:
        """Partition members (ring order) into replica groups of ~repl."""
        ordered = sorted(member_ids, key=lambda p: self.population[p].dht_id)
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
                self.log,
                degree=self.config.replica_degree,
            )
            self._groups.append(group)
        for group in self._groups:
            for member in group.members:
                self._group_of[member] = group

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

    def refresh_content(self, key: str, value: object) -> None:
        """Replace the content replicas of ``key`` (article replacement:
        the Section 4 scenario replaces every article every 24 h).

        Index entries are *not* touched — the selection algorithm has no
        proactive updates, so an already-indexed key keeps serving the old
        payload until it expires or is re-inserted after a miss. That
        staleness window is measured by the staleness experiment.
        """
        self.replicator.refresh(key, value)

    # ------------------------------------------------------------------
    # Query path (Section 5.1)
    # ------------------------------------------------------------------
    def query(self, origin: PeerId, key: str) -> QueryOutcome:
        """Answer one query from online peer ``origin``."""
        now = self.simulation.now
        self.population[origin].require_online()

        gateway = self._gateway(origin)
        index_messages = 0
        flood_messages = 0

        hit_value: object = None
        via_index = False
        found = False
        responsible: Optional[PeerId] = None

        if gateway is not None:
            lookup = self.dht.lookup(gateway, key)
            index_messages += lookup.messages
            responsible = lookup.responsible
            nodes = self.nodes
            record = nodes[responsible].store.query(key, now)
            if record is not None:
                hit_value, via_index, found = record[0], True, True
            else:
                # Replica-subnetwork flood (Eq. 16 surcharge): a hit is a
                # member holding an unexpired record.
                group = self.group_of(responsible)

                def live(member: PeerId) -> bool:
                    held = nodes[member].store.records.get(key)
                    return held is not None and held[1] > now

                hits, msgs = group.flood(
                    responsible, predicate=live, payload=key
                )
                flood_messages += msgs
                live_hits = [h for h in hits if h != responsible]
                if live_hits:
                    record = nodes[live_hits[0]].store.query(key, now)
                    if record is not None:
                        hit_value, via_index, found = record[0], True, True

        if via_index:
            self.policy.record_hit(key)
            return QueryOutcome(
                key=key,
                found=True,
                via_index=True,
                index_messages=index_messages,
                flood_messages=flood_messages,
                walk_messages=0,
                insert_messages=0,
                value=hit_value,
            )

        # Miss: broadcast search the unstructured overlay.
        walk = self.walker.search(origin, key)
        self.policy.record_miss(key, resolved=walk.found)
        insert_messages = 0
        if walk.found and gateway is not None:
            insert_messages = self._insert_into_index(gateway, key, walk.value)
            self.policy.record_insertion(key)
        return QueryOutcome(
            key=key,
            found=walk.found,
            via_index=False,
            index_messages=index_messages,
            flood_messages=flood_messages,
            walk_messages=walk.messages,
            insert_messages=insert_messages,
            value=walk.value,
        )

    def _insert_into_index(self, gateway: PeerId, key: str, value: object) -> int:
        """Insert a resolved key at the responsible peer and replicate it
        through the replica subnetwork (the second cSIndx2 of Eq. 17).

        One record and one heap record serve every member the flood
        reaches (the responsible peer first): all of them follow the one
        ``keyTtl`` (:meth:`set_key_ttl`).
        """
        now = self.simulation.now
        lookup = self.dht.lookup(gateway, key)
        responsible = lookup.responsible
        reached, flood_msgs = self.group_of(responsible).flood(
            responsible, payload=key
        )
        nodes = self.nodes
        expires_at = now + nodes[responsible].store.ttl
        record = (value, expires_at)
        heap_record = (expires_at, key)
        for member in reached:
            nodes[member].store.put(key, record, heap_record, now)
        return lookup.messages + flood_msgs

    def disable_maintenance(self) -> None:
        """Stop routing-table probing (the noIndex baseline runs no DHT)."""
        self._maintenance_controller.cancel()

    def proactive_update(self, key: str, value: object) -> int:
        """Apply one index update (Eq. 9): route to the responsible peer
        and disseminate through the replica subnetwork. Returns messages."""
        online = self.dht.online_members()
        if not online:
            return 0
        rng = self.streams.get("gateway")
        gateway = online[int(rng.integers(0, len(online)))]
        return self._insert_into_index(gateway, key, value)

    def preload_index(self, key: str, value: object) -> None:
        """Place one index entry (see :meth:`preload_index_all`)."""
        self.preload_index_all({key: value})

    def preload_index_all(self, items: dict[str, object]) -> None:
        """Place index entries at their responsible replica groups without
        counting messages (steady-state pre-population of the indexAll and
        partial-ideal baselines; the paper's analysis starts from a built
        index).

        Every member of a group stores the group's keys in the order
        ``items`` lists them, each key as the one record the group's map
        holds (a copy of the map per member, never the map itself).
        """
        now = self.simulation.now
        by_group: dict[ReplicaNetwork, list[tuple[str, object]]] = {}
        for key, value in items.items():
            group = self.group_of(self.dht.responsible_for(key))
            by_group.setdefault(group, []).append((key, value))
        for group, pairs in by_group.items():
            stores = [self.nodes[member].store for member in group.members]
            expires_at = now + stores[0].ttl
            records = {key: (value, expires_at) for key, value in pairs}
            for store in stores:
                store.put_all(records, expires_at, now)

    def _gateway(self, origin: PeerId) -> Optional[PeerId]:
        """An online DHT member through which ``origin`` reaches the index.

        Peers outside the DHT know at least one participating member
        (Section 3.2) via their gateway cache; discovery traffic is
        accounted in the MEMBERSHIP category. Returns None when the whole
        DHT is offline, in which case only the broadcast path remains.
        """
        try:
            return self.gateways.gateway_for(origin)
        except RoutingError:
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Live (unexpired) index entries across all members, counting each
        key once per replica group it lives in."""
        now = self.simulation.now
        seen: set[tuple[int, str]] = set()
        for group_idx, group in enumerate(self._groups):
            for member in group.members:
                node = self.nodes[member]
                node.store.purge_expired(now)
                for key in node.store.keys():
                    seen.add((group_idx, key))
        return len(seen)

    def distinct_indexed_keys(self) -> int:
        """Distinct keys with at least one live index entry anywhere."""
        now = self.simulation.now
        keys: set[str] = set()
        for node in self.nodes.values():
            node.store.purge_expired(now)
            keys.update(node.store.keys())
        return len(keys)

    def message_rate(self, duration: float) -> dict[MessageCategory, float]:
        """Per-category msg/s over ``duration`` (for model comparison)."""
        return {
            category: self.metrics.total(category) / duration
            for category in MessageCategory
        }

    def random_online_peer(self) -> PeerId:
        """A uniformly random online peer: the peer
        ``overlay.random_online_peer(streams.get("origins"))`` returns."""
        online = self.population.sorted_online_ids()
        if not online:
            raise ParameterError("no peers online")
        return online[self.origins.draw(len(online))]

    def set_key_ttl(self, key_ttl: float) -> None:
        """Retarget every member's TTL (used by the adaptive controller)."""
        for node in self.nodes.values():
            node.set_ttl(key_ttl)
        self.policy.key_ttl = key_ttl

    def advance(self, rounds: float) -> None:
        """Run the event clock forward (maintenance, churn, expirations)."""
        if rounds < 0:
            raise ParameterError(f"rounds must be >= 0, got {rounds}")
        self.simulation.run(until=self.simulation.now + rounds)
