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

Same conventions as the other backends: rebuild on membership change,
liveness checked per hop, probing costs live in
:mod:`repro.dht.maintenance`.
"""

from __future__ import annotations

from repro.dht.base import DistributedHashTable
from repro.errors import RoutingError
from repro.net.messages import MessageKind
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
        target_bits = self.keyspace.to_bits(target)
        leaf = self._leaf_for(target_bits)
        online = [
            p for p in self._leaf_members[leaf] if self.population.is_online(p)
        ]
        if online:
            return min(online)
        for level in reversed(range(len(leaf))):
            complement = leaf[:level] + ("1" if leaf[level] == "0" else "0")
            candidates = [
                p for p in self._members_under(complement)
                if self.population.is_online(p)
            ]
            if candidates:
                return min(candidates)
        raise RoutingError("P-Grid trie has no online members")

    def _route(self, origin: PeerId, target: int) -> tuple[PeerId, int]:
        responsible = self._responsible(target)
        target_bits = self.keyspace.to_bits(target)
        current = origin
        hops = 0
        limit = len(self._members) + self.keyspace.bits
        while current != responsible:
            nxt = self._next_hop(current, target_bits, responsible)
            self.log.send(MessageKind.DHT_LOOKUP, current, nxt, target)
            hops += 1
            current = nxt
            if hops > limit:
                raise RoutingError(
                    f"P-Grid routing did not converge within {limit} hops"
                )
        return responsible, hops

    def _next_hop(self, current: PeerId, target_bits: str, responsible: PeerId) -> PeerId:
        path = self._paths[current]
        mismatch = None
        for level in range(len(path)):
            if path[level] != target_bits[level]:
                mismatch = level
                break
        if mismatch is None:
            # Our whole path is a prefix of the target: we are in the right
            # leaf but may be an offline-sibling situation; go straight to
            # the responsible peer (a replica in the same leaf).
            return responsible
        for ref in self._refs.get(current, {}).get(mismatch, ()):
            if self.population.is_online(ref):
                return ref
        # All refs at the deciding level are offline. Any online member on
        # the complement side works; as a last resort hand over to the
        # responsible peer directly (models P-Grid's fidget/retry).
        complement = path[:mismatch] + target_bits[mismatch]
        for candidate in self._members_under(complement):
            if candidate != current and self.population.is_online(candidate):
                return candidate
        return responsible

    # ------------------------------------------------------------------
    def routing_table(self, peer_id: PeerId) -> list[PeerId]:
        self._ensure_routing()
        table: list[PeerId] = []
        for refs in self._refs.get(peer_id, {}).values():
            table.extend(refs)
        return table

    def path_of(self, peer_id: PeerId) -> str:
        """The member's trie path (diagnostics and tests)."""
        self._ensure_routing()
        if peer_id not in self._paths:
            raise RoutingError(f"peer {peer_id} is not a P-Grid member")
        return self._paths[peer_id]

    def trie_depths(self) -> list[int]:
        """Path lengths across members (balance diagnostics)."""
        self._ensure_routing()
        return sorted(len(p) for p in self._paths.values())
