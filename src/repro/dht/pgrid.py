"""P-Grid [Aber01]: a binary trie overlay.

P-Grid is the system the paper's own simulator was built on. Each member
owns a binary *path*; it is responsible for all keys whose identifier
starts with that path. Paths are obtained by recursively splitting the
member set on the next identifier bit until buckets are small, so the trie
is balanced to within the randomness of SHA-1 and the average path length
is ~``log2(n)``.

For every prefix position ``i`` of its path, a member keeps references to
members on the *complement* side (same first ``i`` bits, opposite bit at
``i``). A lookup fixes one mismatched bit per hop, and because a random
origin already shares half the target's bits in expectation, the mean hop
count is ``1/2 * log2(n)`` — the paper's Eq. 7 verbatim.

Conventions of :class:`~repro.dht.base.DistributedHashTable`: rebuild on
membership change, liveness decides every hop, probing costs live in
:mod:`repro.dht.maintenance`. What a lookup derives from the trie and from
who is online — a target's leaf, a leaf's owner, a member's next hop at a
level — is derived once per routing rebuild or per
``PeerPopulation.liveness_epoch`` (the two halves of
:attr:`~repro.dht.base.DistributedHashTable.view_key`), not per query.
"""

from __future__ import annotations

from repro import obs
from repro.dht.base import KEY_MEMO_LIMIT, DistributedHashTable
from repro.errors import RoutingError
from repro.net.node import PeerId

__all__ = ["PGridDht"]


class PGridDht(DistributedHashTable):
    """P-Grid backend (binary trie)."""

    def __init__(self, *args, refs_per_level: int = 2, bucket_size: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if refs_per_level < 1:
            raise RoutingError(f"refs_per_level must be >= 1, got {refs_per_level}")
        if bucket_size < 1:
            raise RoutingError(f"bucket_size must be >= 1, got {bucket_size}")
        self.refs_per_level = refs_per_level
        self.bucket_size = bucket_size

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        members = sorted(self._members)
        self._paths: dict[PeerId, str] = {}
        self._leaf_members: dict[str, list[PeerId]] = {}
        self._refs: dict[PeerId, dict[int, tuple[PeerId, ...]]] = {}
        self._under: dict[str, tuple[PeerId, ...]] = {}
        self._located: dict[int, tuple[str, str]] = {}
        #: The liveness epoch the owner and next-hop memos were filled
        #: under; None: no memos (yet, or not of this trie).
        self._routes_epoch: int | None = None
        self._max_leaf_depth = 0
        if not members:
            return
        self._split(members, "")
        self._max_leaf_depth = max(len(p) for p in self._leaf_members)
        for peer, path in self._paths.items():
            self._refs[peer] = self._build_refs(peer, path)

    def _split(self, members: list[PeerId], prefix: str) -> None:
        """Recursively partition members on the next identifier bit.

        ``members`` is, by construction, every member under ``prefix`` in
        ascending id order — the answer :meth:`_members_under` owes for
        each node of the trie, recorded here on the way down.
        """
        self._under[prefix] = tuple(members)
        if len(members) <= self.bucket_size or len(prefix) >= self.keyspace.bits:
            for peer in members:
                self._paths[peer] = prefix
            self._leaf_members[prefix] = list(members)
            return
        zeros: list[PeerId] = []
        ones: list[PeerId] = []
        position = len(prefix)
        for peer in members:
            bit = self.keyspace.digit(self.population[peer].dht_id, position)
            (ones if bit else zeros).append(peer)
        # A lopsided split (possible with few members) must not recurse
        # forever on the same empty side: an empty side means this prefix is
        # already a leaf for everyone.
        if not zeros or not ones:
            for peer in members:
                self._paths[peer] = prefix
            self._leaf_members[prefix] = list(members)
            return
        self._split(zeros, prefix + "0")
        self._split(ones, prefix + "1")

    def _build_refs(
        self, peer: PeerId, path: str
    ) -> dict[int, tuple[PeerId, ...]]:
        """References to the complement subtree at every path level."""
        refs: dict[int, tuple[PeerId, ...]] = {}
        for level in range(len(path)):
            complement = path[:level] + ("1" if path[level] == "0" else "0")
            candidates = self._members_under(complement)
            if candidates:
                refs[level] = candidates[: self.refs_per_level]
        return refs

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
    def _leaf_for(self, target_bits: str) -> str:
        """The trie leaf path owning ``target_bits`` (walks the trie)."""
        for depth in range(self._max_leaf_depth + 1):
            prefix = target_bits[:depth]
            if prefix in self._leaf_members:
                return prefix
        raise RoutingError("P-Grid trie has no leaf for target")

    def _locate(self, target: int) -> tuple[str, str]:
        """``target`` as bits, as deep as the trie goes, and its leaf.

        Memoised per target until the next routing rebuild (at most
        :data:`~repro.dht.base.KEY_MEMO_LIMIT` targets). Trie leaves
        are prefix-free, so this pair is all a route needs of its target.
        """
        located = self._located.get(target)
        if located is None:
            if len(self._located) >= KEY_MEMO_LIMIT:
                self._located.clear()
            bits = self.keyspace.to_bits(target)[: self._max_leaf_depth]
            located = self._located[target] = (bits, self._leaf_for(bits))
        return located

    def _responsible(self, target: int) -> PeerId:
        """Online member with the longest path-prefix match on ``target``.

        The owner's leaf is found by walking the trie; if every replica in
        that leaf is offline, responsibility falls to the nearest online
        member in a sibling subtree (flipping the deepest path bits first),
        which models P-Grid's replica fall-back.
        """
        self._ensure_routing()
        if not self._leaf_members:
            raise RoutingError("P-Grid trie is empty")
        leaf = self._locate(target)[1]
        # Who owns a leaf and where a hop goes both hold for one trie and
        # one liveness epoch, and are forgotten together.
        epoch = self.population.liveness_epoch
        if epoch != self._routes_epoch:
            self._owners: dict[str, PeerId] = {}
            self._next_hops: dict[tuple[PeerId, int], PeerId | None] = {}
            self._routes_epoch = epoch
            obs.count("dht.routes.rebuild")
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

    def _route(
        self, origin: PeerId, target: int, hops: list[tuple[PeerId, PeerId]]
    ) -> PeerId:
        # _responsible() located the target and made the memos current.
        responsible = self._responsible(target)
        target_bits = self._located[target][0]
        next_hops = self._next_hops
        paths = self._paths
        current = origin
        limit = len(self._members) + self.keyspace.bits
        while current != responsible:
            # A hop depends on the target only through the first level at
            # which the current member's path leaves it.
            nxt = None
            for level, bit in enumerate(paths[current]):
                if bit != target_bits[level]:
                    try:
                        nxt = next_hops[current, level]
                    except KeyError:
                        nxt = next_hops[current, level] = self._next_hop(
                            current, level
                        )
                    break
            if nxt is None:
                # Our whole path is a prefix of the target (we are in the
                # right leaf, beside an offline sibling), or nobody online
                # is known on the target's side: go straight to the
                # responsible peer (models P-Grid's fidget/retry).
                nxt = responsible
            hops.append((current, nxt))
            current = nxt
            if len(hops) > limit:
                raise RoutingError(
                    f"P-Grid routing did not converge within {limit} hops"
                )
        return responsible

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

    # ------------------------------------------------------------------
    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        self._ensure_routing()
        table: list[PeerId] = []
        for refs in self._refs.get(peer_id, {}).values():
            table.extend(refs)
        return table

