"""P-Grid [Aber01]: the DHT the PDHT routes over, a binary trie overlay.

The paper's model consumes exactly two properties of a DHT:

* lookups resolve in ``O(log n)`` overlay hops (Eq. 7 charges
  ``1/2 * log2(numActivePeers)`` messages per lookup);
* each member maintains a routing table of ``O(log n)`` entries whose
  probing drives the maintenance cost (Eq. 8).

The DHT routes and stores nothing: the P-DHT's index lives in each
replica group's :class:`~repro.pdht.ttl_cache.ReplicaGroupIndex`, which
holds its members' TTL key stores once. P-Grid is the system
the paper's own simulator was built on. Each member owns a binary
*path*; it is responsible for all keys whose identifier starts with that
path. Paths are obtained by recursively splitting the member set on the
next identifier bit until each bucket holds one member (or the members
left agree on the next bit), so the trie is balanced to
within the randomness of SHA-1 and the average path length is
~``log2(n)``.

For every prefix position ``i`` of its path, a member keeps references to
members on the *complement* side (same first ``i`` bits, opposite bit at
``i``). A lookup fixes one mismatched bit per hop, and because a random
origin already shares half the target's bits in expectation, the mean hop
count is ``1/2 * log2(n)`` — the paper's Eq. 7 verbatim.

The DHT:

* operates over a *member set* of peers drawn from the shared
  :class:`~repro.net.node.PeerPopulation` (the paper's ``numActivePeers``
  subset — peers beyond what the index needs do not join the DHT);
* counts every join and the routing hops of every lookup into the shared
  :class:`~repro.sim.metrics.MessageMetrics`;
* routes only through *online* members, falling back to the closest
  alternative when an entry is dead (the "piggybacked repair"
  assumption of Section 3.3.1 — detecting staleness costs probe messages,
  repairing it does not; the probes live in :mod:`repro.dht.maintenance`);
* derives what a lookup needs from the trie and from who is online —
  each member's path as an int, a target's leaf (once per routing
  rebuild); the online members, a leaf's owner, a member's
  next hop at a level (once per :attr:`~PGridDht.view_key` —
  ``(membership version, member flips)``) — not per query: a non-member
  going on- or offline keeps them all. A hop finds the level at which
  the current member's path leaves the target with one XOR and one
  ``bit_length``, not a scan of the path.

A query routes with :meth:`PGridDht.route`, ``(origin, key) ->
(responsible, hops)``: it checks the origin's membership and liveness
once, brings routing up to the membership once, and while the liveness
epoch is the one the owner and next-hop memos were last checked at,
reads the owner straight from them; :meth:`~PGridDht.lookup` wraps it
in a :class:`LookupResult`. A target's leaf is found once per routing
rebuild by looking its first ``l`` bits up in an index of the leaves'
paths as ints, for each leaf length ``l`` from the shallowest to the
deepest (7 to 13 bits at 1,000 members, 11 to 18 at 20,000): the index
holds one entry per leaf, where a table over every value of the
deepest leaf's bits would grow with the tail of the trie's depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro import obs
from repro.dht.keyspace import KeySpace
from repro.errors import ParameterError, RoutingError
from repro.net.node import PeerId, PeerPopulation, dht_id_for
from repro.sim.metrics import MessageCategory, MessageMetrics

__all__ = ["LookupResult", "PGridDht", "KEY_MEMO_LIMIT"]

#: Most entries a per-key memo (key -> identifier, identifier -> leaf)
#: holds before it is emptied and refilled: a workload with an open key
#: universe (trace replay) must not grow one without end. Well above
#: every scenario's ``n_keys`` (40,000 at full scale).
KEY_MEMO_LIMIT = 1 << 16


@dataclass(slots=True)
class LookupResult:
    """Outcome of one DHT lookup: one message per routing hop."""

    key: str
    responsible: PeerId
    messages: int


class PGridDht:
    """P-Grid: membership, trie routing and lookup.

    Joins trigger a routing-state rebuild (:meth:`_rebuild`) at the next
    lookup.
    """

    def __init__(
        self,
        population: PeerPopulation,
        metrics: MessageMetrics,
        *,
        refs_per_level: int = 2,
    ) -> None:
        if refs_per_level < 1:
            raise RoutingError(f"refs_per_level must be >= 1, got {refs_per_level}")
        self.population = population
        self.metrics = metrics
        self.keyspace = KeySpace()
        self.refs_per_level = refs_per_level
        #: Member -> its 160-bit identifier (:func:`dht_id_for`), hashed
        #: once at join; only members have one.
        self._members: dict[PeerId, int] = {}
        #: key -> identifier: a key hashes to the same point for good.
        #: One entry per distinct key looked up — the scenario's
        #: ``n_keys`` — and never more than :data:`KEY_MEMO_LIMIT`.
        self._targets: dict[str, int] = {}
        #: Bumped by every join; routing state and the online view are
        #: each rebuilt lazily when they lag behind it.
        self._membership_version = 0
        self._routed_version = 0
        #: Moves when a member flipped: the second half of
        #: :attr:`view_key`, brought up to ``population.liveness_epoch``
        #: (recorded in ``_flips_epoch``) from the population's flip log.
        self._member_flips = 0
        self._flips_epoch = population.liveness_epoch
        self._online_view: tuple[PeerId, ...] = ()
        self._online_view_key: Optional[tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._members)

    def is_member(self, peer_id: PeerId) -> bool:
        return peer_id in self._members

    def members(self) -> tuple[PeerId, ...]:
        """Every member, ascending by peer id (read-only): the trie's
        root, sorted once per membership version."""
        self._ensure_routing()
        return self._members_under("")

    @property
    def membership_version(self) -> int:
        """Bumped by every join: the first half of :attr:`view_key`."""
        return self._membership_version

    def dht_id(self, member: PeerId) -> int:
        """A member's identifier, the point its trie path is cut from."""
        return self._members[member]

    @property
    def view_key(self) -> tuple[int, int]:
        """``(membership version, member flips)``.

        Anything derived from who is a member and which members are
        online — the online view, the owner and next-hop memos here,
        maintenance's table sizes — stays valid for as long as this value
        does: joins bump the first half, and a liveness transition of a
        member the second. A non-member's flip moves neither; flips the
        population's log no longer reaches back to count as a member's.
        """
        population = self.population
        if population.liveness_epoch != self._flips_epoch:
            if population.any_flipped_since(
                self._flips_epoch, self._members.keys()
            ):
                self._member_flips += 1
            self._flips_epoch = population.liveness_epoch
        return self._membership_version, self._member_flips

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
        self.population.check(peer_id)
        if peer_id in self._members:
            return
        self._members[peer_id] = dht_id_for(peer_id)
        self.metrics.count(MessageCategory.MEMBERSHIP)
        self._membership_version += 1

    def join_all(self, peer_ids: Iterable[PeerId]) -> None:
        for peer_id in peer_ids:
            self.join(peer_id)

    def _ensure_routing(self) -> None:
        if self._routed_version != self._membership_version:
            self._rebuild()
            self._routed_version = self._membership_version

    # ------------------------------------------------------------------
    # The trie
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        members = sorted(self._members)
        self._paths: dict[PeerId, str] = {}
        self._leaf_members: dict[str, list[PeerId]] = {}
        #: Member -> level -> its references at that level, filled in by
        #: :meth:`_split`.
        self._refs: dict[PeerId, dict[int, tuple[PeerId, ...]]] = {
            peer: {} for peer in members
        }
        self._under: dict[str, tuple[PeerId, ...]] = {}
        #: Member -> ``(shift, path, length)``: its path as an int of
        #: ``length`` bits, and how far a target's first
        #: ``_max_leaf_depth`` bits shift right to line up with it.
        self._codes: dict[PeerId, tuple[int, int, int]] = {}
        self._located: dict[int, str] = {}
        #: Each leaf's path as the int ``1 << len(path) | int(path, 2)``
        #: (the leading 1 keeps paths of different lengths apart).
        self._leaf_index: dict[int, str] = {}
        #: The :attr:`view_key` the owner and next-hop memos were filled
        #: under, and the liveness epoch it was last checked at; None: no
        #: memos (yet, or not of this trie).
        self._routes_key: tuple[int, int] | None = None
        self._routes_epoch: int | None = None
        self._min_leaf_depth = self._max_leaf_depth = 0
        self._prefix_shift = self.keyspace.bits
        if not members:
            return
        self._split(members, "")
        self._min_leaf_depth = min(map(len, self._leaf_members))
        depth = self._max_leaf_depth = max(map(len, self._leaf_members))
        #: A target's first ``depth`` bits are ``target >> _prefix_shift``.
        self._prefix_shift = self.keyspace.bits - depth
        for peer, path in self._paths.items():
            self._codes[peer] = (
                depth - len(path), int(path, 2) if path else 0, len(path)
            )
        self._leaf_index = {
            1 << len(path) | (int(path, 2) if path else 0): path
            for path in self._leaf_members
        }

    def _split(self, members: list[PeerId], prefix: str) -> None:
        """Recursively partition members on the next identifier bit.

        ``members`` is, by construction, every member under ``prefix`` in
        ascending id order — the answer :meth:`_members_under` owes for
        each node of the trie, recorded here on the way down. A split
        also gives each member its references at level ``len(prefix)``:
        the first ``refs_per_level`` members of the other child, the
        complement subtree of the member's path at that level.
        """
        self._under[prefix] = tuple(members)
        if len(members) <= 1 or len(prefix) >= self.keyspace.bits:
            for peer in members:
                self._paths[peer] = prefix
            self._leaf_members[prefix] = list(members)
            return
        zeros: list[PeerId] = []
        ones: list[PeerId] = []
        # keyspace.digit(ident, len(prefix)) without its range checks: a
        # member's identifier is in the space, and the prefix is shorter
        # than it (checked above).
        shift = self.keyspace.bits - 1 - len(prefix)
        ids = self._members
        for peer in members:
            (ones if ids[peer] >> shift & 1 else zeros).append(peer)
        # A lopsided split (possible with few members) must not recurse
        # forever on the same empty side: an empty side means this prefix is
        # already a leaf for everyone.
        if not zeros or not ones:
            for peer in members:
                self._paths[peer] = prefix
            self._leaf_members[prefix] = list(members)
            return
        level = len(prefix)
        refs = self._refs
        to_ones = tuple(ones[: self.refs_per_level])
        to_zeros = tuple(zeros[: self.refs_per_level])
        for peer in zeros:
            refs[peer][level] = to_ones
        for peer in ones:
            refs[peer][level] = to_zeros
        self._split(zeros, prefix + "0")
        self._split(ones, prefix + "1")

    def _members_under(self, prefix: str) -> tuple[PeerId, ...]:
        """All members whose path starts with ``prefix`` (or is a prefix of
        it, for shallow leaves), ascending by peer id.

        Every trie node was answered by :meth:`_split`; what is left to
        scan for is a prefix below a leaf or off the trie. Memoised per
        prefix until the next routing rebuild.
        """
        members = self._under.get(prefix)
        if members is None:
            found: list[PeerId] = []
            for leaf_path, peers in self._leaf_members.items():
                if leaf_path.startswith(prefix) or prefix.startswith(leaf_path):
                    found.extend(peers)
            members = self._under[prefix] = tuple(sorted(found))
        return members

    # ------------------------------------------------------------------
    # Lookup
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

    def lookup(self, origin: PeerId, key: str) -> LookupResult:
        """:meth:`route`, as a result object."""
        responsible, hops = self.route(origin, key)
        return LookupResult(key=key, responsible=responsible, messages=hops)

    def _locate(self, target: int) -> str:
        """The trie leaf owning ``target``: the one whose path is a prefix
        of it, looked up in the leaf index for each leaf length.

        Memoised per target until the next routing rebuild (at most
        :data:`KEY_MEMO_LIMIT` targets). Trie leaves
        are prefix-free, so the leaf and the target's first
        ``_max_leaf_depth`` bits are all a route needs of its target.
        """
        leaf = self._located.get(target)
        if leaf is None:
            index = self._leaf_index
            bits = self.keyspace.bits
            for length in range(
                self._min_leaf_depth, self._max_leaf_depth + 1
            ):
                leaf = index.get(1 << length | target >> (bits - length))
                if leaf is not None:
                    break
            else:
                raise RoutingError("P-Grid trie has no leaf for target")
            if len(self._located) >= KEY_MEMO_LIMIT:
                self._located.clear()
            self._located[target] = leaf
        return leaf

    def _responsible(self, target: int) -> PeerId:
        """Online member with the longest path-prefix match on ``target``.

        The owner's leaf is the one :meth:`_locate` finds; if every
        replica in that leaf is offline, responsibility falls to the
        nearest online member in a sibling subtree (flipping the deepest
        path bits first), which models P-Grid's replica fall-back. Brings
        routing up to the membership and the owner and next-hop memos up
        to the liveness epoch; while the epoch is the one they were last
        checked at, the owner comes straight from them.
        """
        self._ensure_routing()
        # Who owns a leaf and where a hop goes both hold for one trie and
        # one view key, and are forgotten together; the key is read only
        # when the liveness epoch moved.
        epoch = self.population.liveness_epoch
        if epoch != self._routes_epoch:
            if not self._leaf_members:
                raise RoutingError("P-Grid trie is empty")
            key = self.view_key
            if key != self._routes_key:
                self._owners: dict[str, PeerId] = {}
                self._next_hops: dict[tuple[PeerId, int], PeerId | None] = {}
                self._routes_key = key
                obs.count("dht.routes.rebuild")
            self._routes_epoch = epoch
        leaf = self._located.get(target)
        if leaf is None:
            leaf = self._locate(target)
        owner = self._owners.get(leaf)
        if owner is None:
            owner = self._owners[leaf] = self._owner_of(leaf)
        return owner

    def _owner_of(self, leaf: str) -> PeerId:
        is_online = self.population.is_online
        online = [p for p in self._leaf_members[leaf] if is_online(p)]
        if online:
            return min(online)
        for level in reversed(range(len(leaf))):
            complement = leaf[:level] + ("1" if leaf[level] == "0" else "0")
            candidates = [
                p for p in self._members_under(complement) if is_online(p)
            ]
            if candidates:
                return min(candidates)
        raise RoutingError("P-Grid trie has no online members")

    def route(self, origin: PeerId, key: str) -> tuple[PeerId, int]:
        """Route a lookup for ``key`` from online member ``origin``: the
        member responsible for it and the hops taken, counted together as
        ``INDEX_SEARCH`` messages — a route that does not converge counts
        its hops before it raises.

        The origin is checked once, and :meth:`_responsible` brings
        routing and its memos up to date once.
        """
        self._require_online_member(origin)
        target = self._targets.get(key)
        if target is None:
            target = self._target(key)
        responsible = self._responsible(target)
        prefix = target >> self._prefix_shift
        next_hops = self._next_hops
        codes = self._codes
        current = origin
        limit = len(self._members) + self.keyspace.bits
        hops = 0
        while current != responsible:
            # A hop depends on the target only through the first level at
            # which the current member's path leaves it: the path's length
            # less the bit length of the path XOR the target's bits under
            # it, none when they are equal.
            nxt = None
            shift, path, length = codes[current]
            diff = path ^ (prefix >> shift)
            if diff:
                level = length - diff.bit_length()
                try:
                    nxt = next_hops[current, level]
                except KeyError:
                    nxt = next_hops[current, level] = self._next_hop(
                        current, level
                    )
            if nxt is None:
                # Our whole path is a prefix of the target (we are in the
                # right leaf, beside an offline sibling), or nobody online
                # is known on the target's side: go straight to the
                # responsible peer (models P-Grid's fidget/retry).
                nxt = responsible
            hops += 1
            current = nxt
            if hops > limit:
                self.metrics.count(MessageCategory.INDEX_SEARCH, hops)
                obs.count("dht.routes")
                obs.count("dht.hops", hops)
                raise RoutingError(
                    f"P-Grid routing did not converge within {limit} hops"
                )
        self.metrics.count(MessageCategory.INDEX_SEARCH, hops)
        obs.count("dht.routes")
        obs.count("dht.hops", hops)
        return responsible, hops

    def _next_hop(self, current: PeerId, mismatch: int) -> PeerId | None:
        """Where ``current`` forwards a target that leaves its path at
        level ``mismatch``: its first online reference at that level or,
        with all of them offline, any other online member on the
        complement side; None when there is none."""
        is_online = self.population.is_online
        for ref in self._refs.get(current, {}).get(mismatch, ()):
            if is_online(ref):
                return ref
        path = self._paths[current]
        complement = path[:mismatch] + ("1" if path[mismatch] == "0" else "0")
        for candidate in self._members_under(complement):
            if candidate != current and is_online(candidate):
                return candidate
        return None

    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        """The peer's current routing entries (for maintenance probing)."""
        self._ensure_routing()
        table: list[PeerId] = []
        for refs in self._refs.get(peer_id, {}).values():
            table.extend(refs)
        return table

    def _require_online_member(self, peer_id: PeerId) -> None:
        if peer_id not in self._members:
            raise ParameterError(f"peer {peer_id} is not a DHT member")
        self.population.require_online(peer_id)
