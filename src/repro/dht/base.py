"""The membership, lookup and storage plane of the DHT.

The paper's model consumes exactly two properties of a DHT:

* lookups resolve in ``O(log n)`` overlay hops (Eq. 7 charges
  ``1/2 * log2(numActivePeers)`` messages per lookup);
* each member maintains a routing table of ``O(log n)`` entries whose
  probing drives the maintenance cost (Eq. 8).

:class:`DistributedHashTable` exposes those two properties plus a plain
key-value plane; the routing geometry lives in a subclass (P-Grid's trie,
:mod:`repro.dht.pgrid`). Together they:

* operate over a *member set* of peers drawn from the shared
  :class:`~repro.net.node.PeerPopulation` (the paper's ``numActivePeers``
  subset — peers beyond what the index needs do not join the DHT);
* count the routing hops of every lookup through the shared
  :class:`~repro.net.messages.MessageLog`;
* route only through *online* members, falling back to the closest
  alternative when an entry is dead (the "piggybacked repair"
  assumption of Section 3.3.1 — detecting staleness costs probe messages,
  repairing it does not);
* answer "which members are online?" from one *membership view* per
  :attr:`~DistributedHashTable.view_key` — ``(membership version,
  PeerPopulation.liveness_epoch)`` — so a maintenance sweep or an index
  preload over an unchanged network does not rescan the member set.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

from repro import obs
from repro.errors import ParameterError, RoutingError
from repro.net.messages import MessageKind, MessageLog
from repro.net.node import PeerId, PeerPopulation
from repro.dht.keyspace import KeySpace

__all__ = ["LookupResult", "DistributedHashTable", "KEY_MEMO_LIMIT"]

#: Most entries a per-key memo (key -> identifier here, identifier -> leaf
#: in P-Grid) holds before it is emptied and refilled: a workload with an
#: open key universe (trace replay, news) must not grow one without end.
#: Well above every scenario's ``n_keys`` (40,000 at full scale).
KEY_MEMO_LIMIT = 1 << 16


@dataclass(slots=True)
class LookupResult:
    """Outcome of one DHT lookup."""

    key: str
    responsible: PeerId
    hops: int
    messages: int
    found_value: object = None
    has_value: bool = False


class DistributedHashTable(abc.ABC):
    """Membership, lookup and storage; the routing geometry is abstract.

    A subclass implements the routing geometry via :meth:`_route`; joins
    and leaves trigger a routing-state rebuild via :meth:`_rebuild`.
    """

    def __init__(
        self,
        population: PeerPopulation,
        log: MessageLog,
        keyspace: Optional[KeySpace] = None,
    ) -> None:
        self.population = population
        self.log = log
        self.keyspace = keyspace or KeySpace()
        self._members: set[PeerId] = set()
        self._storage: dict[PeerId, dict[str, object]] = {}
        #: key -> identifier: a key hashes to the same point for good.
        #: One entry per distinct key looked up — the scenario's
        #: ``n_keys`` — and never more than :data:`KEY_MEMO_LIMIT`.
        self._targets: dict[str, int] = {}
        #: Bumped by every join and leave; routing state and the online
        #: view are each rebuilt lazily when they lag behind it.
        self._membership_version = 0
        self._routed_version = 0
        self._online_view: tuple[PeerId, ...] = ()
        self._online_view_key: Optional[tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def members(self) -> frozenset[PeerId]:
        return frozenset(self._members)

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def view_key(self) -> tuple[int, int]:
        """``(membership version, liveness epoch)``.

        Anything derived from who is a member and who is online — the
        online view here, maintenance's table sizes — stays valid for as
        long as this value does: joins and leaves bump the first half,
        every real liveness transition the second.
        """
        return self._membership_version, self.population.liveness_epoch

    def online_view(self) -> tuple[PeerId, ...]:
        """Members currently online, ascending by peer id (read-only).

        Sorted once per :attr:`view_key`, on the first call after it
        moved; hot paths read this, :meth:`online_members` copies it.
        """
        key = self.view_key
        if key != self._online_view_key:
            self._online_view = tuple(
                sorted(filter(self.population.is_online, self._members))
            )
            self._online_view_key = key
            obs.count("dht.views.rebuild")
        return self._online_view

    def online_members(self) -> list[PeerId]:
        """Members currently online, ascending by peer id (a fresh list)."""
        return list(self.online_view())

    def join(self, peer_id: PeerId) -> None:
        """Add a peer to the DHT member set."""
        self.population[peer_id]  # bounds check
        if peer_id in self._members:
            return
        self._members.add(peer_id)
        self._storage.setdefault(peer_id, {})
        self.log.send(MessageKind.JOIN, peer_id, peer_id)
        self._membership_version += 1

    def join_all(self, peer_ids: Iterable[PeerId]) -> None:
        for peer_id in peer_ids:
            self.join(peer_id)

    def leave(self, peer_id: PeerId) -> None:
        """Remove a peer (its stored keys are lost, as in a crash-leave)."""
        if peer_id not in self._members:
            return
        self._members.discard(peer_id)
        self._storage.pop(peer_id, None)
        self.log.send(MessageKind.LEAVE, peer_id, peer_id)
        self._membership_version += 1

    def _ensure_routing(self) -> None:
        if self._routed_version != self._membership_version:
            self._rebuild()
            self._routed_version = self._membership_version

    # ------------------------------------------------------------------
    # Geometry hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _rebuild(self) -> None:
        """Recompute routing state from the current member set."""

    @abc.abstractmethod
    def _route(
        self, origin: PeerId, target: int, hops: list[tuple[PeerId, PeerId]]
    ) -> PeerId:
        """Route from ``origin`` towards identifier ``target``.

        Returns the responsible peer and appends every hop taken, as
        ``(sender, receiver)``, to ``hops`` — also the hops taken before a
        :class:`RoutingError`; :meth:`lookup` accounts for them. Routing
        may only traverse online members.
        """

    @abc.abstractmethod
    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        """The peer's current routing entries (for maintenance probing)."""

    # ------------------------------------------------------------------
    # Lookup / storage plane
    # ------------------------------------------------------------------
    def responsible_for(self, key: str) -> PeerId:
        """The member responsible for ``key`` (no messages; oracle view)."""
        self._ensure_routing()
        if not self.online_view():
            raise RoutingError("DHT has no online members")
        return self._responsible(self._target(key))

    def _target(self, key: str) -> int:
        """``keyspace.hash_key(key)``, hashed once per key."""
        targets = self._targets
        target = targets.get(key)
        if target is None:
            if len(targets) >= KEY_MEMO_LIMIT:
                targets.clear()
            target = targets[key] = self.keyspace.hash_key(key)
        return target

    @abc.abstractmethod
    def _responsible(self, target: int) -> PeerId:
        """Online member responsible for identifier ``target``."""

    def lookup(self, origin: PeerId, key: str) -> LookupResult:
        """Route a lookup for ``key`` from ``origin``; count its hops."""
        self._require_online_member(origin)
        self._ensure_routing()
        target = self._target(key)
        hops: list[tuple[PeerId, PeerId]] = []
        try:
            responsible = self._route(origin, target, hops)
        finally:
            # One DHT_LOOKUP per hop, counted together — including the
            # hops of a route that did not converge.
            self.log.send_all(MessageKind.DHT_LOOKUP, len(hops), hops, target)
        store = self._storage.get(responsible, {})
        has_value = key in store
        return LookupResult(
            key=key,
            responsible=responsible,
            hops=len(hops),
            messages=len(hops),
            found_value=store.get(key),
            has_value=has_value,
        )

    def insert(self, origin: PeerId, key: str, value: object) -> LookupResult:
        """Route to the responsible peer and store ``(key, value)`` there."""
        result = self.lookup(origin, key)
        self._storage.setdefault(result.responsible, {})[key] = value
        return LookupResult(
            key=key,
            responsible=result.responsible,
            hops=result.hops,
            messages=result.messages,
            found_value=value,
            has_value=True,
        )

    def delete(self, origin: PeerId, key: str) -> LookupResult:
        """Route to the responsible peer and remove ``key`` if present."""
        result = self.lookup(origin, key)
        self._storage.get(result.responsible, {}).pop(key, None)
        return result

    def total_stored_keys(self) -> int:
        return sum(len(s) for s in self._storage.values())

    # ------------------------------------------------------------------
    def _require_online_member(self, peer_id: PeerId) -> None:
        if peer_id not in self._members:
            raise ParameterError(f"peer {peer_id} is not a DHT member")
        self.population[peer_id].require_online()
