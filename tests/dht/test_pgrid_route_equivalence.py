"""Differential test: memoised P-Grid routes, and hops counted once per
lookup, against the per-hop bodies they replaced.

ISSUE 22 derives what a P-Grid lookup needs — a key's identifier, the
identifier's bits and leaf, the leaf's owner, a member's next hop at a
mismatch level — once per key, per routing rebuild or per ``view_key``
instead of per query, and counts a lookup's hops in one call. The
replaced bodies are kept here verbatim — ``lookup`` and
``responsible_for`` hashing the key every time, P-Grid's
``_responsible`` / ``_route`` / ``_next_hop`` re-deriving bits, leaf,
owner and hop from scratch — but for the accounting: the reference
``_route`` counts its hops once, as the new one does, instead of sending
one message per hop. The two are driven side by side through the join /
leave / liveness-flip histories of ``test_routing_views_equivalence.py``.
After every operation every online member looks up every key on both
sides; ``LookupResult``, the recorded counts (the ``recorder`` fixture)
and the totals *in key order* must be ``==``.

Mutations run against the new code, each caught by the test named:

* the owner / next-hop memos surviving a liveness flip —
  ``test_every_ref_of_a_level_offline``,
  ``test_lookups_equal_reference_routes``; surviving a routing rebuild
  (a join or leave) — ``test_memos_do_not_outlive_a_join_or_leave``;
* the next-hop memo keyed by ``current`` alone, or one owner served for
  every leaf — ``test_lookups_equal_reference_routes``,
  ``test_every_ref_of_a_level_offline``;
* ``_located`` not reset by ``_rebuild`` —
  ``test_lookups_equal_reference_routes``,
  ``test_memos_do_not_outlive_a_join_or_leave``;
* target bits truncated to ``_max_leaf_depth - 1`` (``IndexError`` at the
  deepest leaf) — every P-Grid test here;
* the first key's identifier served for every key —
  ``test_lookups_equal_reference_routes``;
* a per-key memo emptied *after* the new entry went in (``_route`` then
  misses the bits ``_responsible`` just located), or never emptied —
  ``test_per_key_memos_are_bounded``;
* ``lookup`` not accounting for the hops of a route that raised —
  ``test_a_route_that_does_not_converge_is_still_counted``;
  ``LookupResult.messages`` off by one —
  ``test_lookups_equal_reference_routes`` (totals in key order, recorded
  counts). That a zero-hop lookup creates no ``INDEX_SEARCH`` key is
  ``MessageMetrics.count``'s rule, which both sides count through:
  ``tests/sim/test_metrics.py`` holds it.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.dht import LookupResult, PGridDht
from repro.errors import RoutingError
from repro.net.node import PeerId, PeerPopulation, dht_id_for
from repro.sim.metrics import MessageCategory, MessageMetrics

from test_routing_views_equivalence import KEYS, History, histories, leave


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------
class ReferenceLookup:
    """``DistributedHashTable``'s lookup plane as it was (less the storage
    plane, gone with the class): the key hashed
    per call, ``_route`` returning ``(responsible, hops)`` having counted
    them itself."""

    def responsible_for(self, key: str) -> PeerId:
        self._ensure_routing()
        if not self.online_view():
            raise RoutingError("DHT has no online members")
        return self._responsible(self.keyspace.hash_key(key))

    def lookup(self, origin: PeerId, key: str) -> LookupResult:
        self._require_online_member(origin)
        self._ensure_routing()
        target = self.keyspace.hash_key(key)
        responsible, hops = self._route(origin, target)
        return LookupResult(key=key, responsible=responsible, messages=hops)


class ReferencePGrid(ReferenceLookup, PGridDht):
    def _leaf_for(self, target_bits: str) -> str:
        """The trie leaf path owning ``target_bits`` (walks the trie)."""
        for depth in range(self._max_leaf_depth + 1):
            prefix = target_bits[:depth]
            if prefix in self._leaf_members:
                return prefix
        raise RoutingError("P-Grid trie has no leaf for target")

    def _responsible(self, target: int) -> PeerId:
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
            hops += 1
            current = nxt
            if hops > limit:
                self.metrics.count(MessageCategory.INDEX_SEARCH, hops)
                raise RoutingError(
                    f"P-Grid routing did not converge within {limit} hops"
                )
        self.metrics.count(MessageCategory.INDEX_SEARCH, hops)
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


# ----------------------------------------------------------------------
# Side-by-side replay
# ----------------------------------------------------------------------
def _pair(population: PeerPopulation, members, recorder, **kwargs):
    """The new P-Grid and its reference over one population, each with
    its own metrics and, as ``counted``, what they recorded."""
    sides = []
    for cls in (PGridDht, ReferencePGrid):
        dht = cls(population, MessageMetrics(), **kwargs)
        dht.counted = recorder(dht.metrics).calls
        dht.join_all(sorted(members))
        sides.append(dht)
    return sides


def _outcome(call, *args):
    try:
        return call(*args)
    except RoutingError as error:
        return type(error), str(error)


def _observable(dht) -> dict:
    return {
        # Order included: a category appears when it is first counted.
        "totals": list(dht.metrics.totals_by_category().items()),
        "counts": dht.counted,
    }


def _assert_same_lookups(new, old, population, keys=KEYS) -> None:
    for key in keys:
        assert _outcome(new.responsible_for, key) == _outcome(
            old.responsible_for, key
        )
    for origin in sorted(new._members):
        if not population.is_online(origin):
            continue
        for key in keys:
            assert _outcome(new.lookup, origin, key) == _outcome(
                old.lookup, origin, key
            )
    assert _observable(new) == _observable(old)
    new.counted.clear()
    old.counted.clear()


def _replay(history: History, recorder) -> None:
    population = PeerPopulation(history.num_peers)
    for peer in history.offline:
        population.set_online(peer, False)
    new, old = _pair(
        population, history.members, recorder, **dict(history.backend_kwargs)
    )
    _assert_same_lookups(new, old, population)
    for op in history.ops:
        name = op[0]
        if name == "join":
            for dht in (new, old):
                dht.join(op[1])
        elif name == "leave":
            for dht in (new, old):
                leave(dht, op[1])
        elif name == "flip":
            population.set_online(op[1], op[2])
        elif name == "lookup":
            origin, key = op[1], op[2]
            if origin in new._members and population.is_online(origin):
                assert _outcome(new.lookup, origin, key) == _outcome(
                    old.lookup, origin, key
                )
        elif name == "reset":
            for dht in (new, old):
                dht.metrics.reset()
        elif name == "read":
            # ``total(category)`` inserts the category on read.
            for dht in (new, old):
                dht.metrics.total(MessageCategory.INDEX_SEARCH)
        else:
            continue  # maintenance ops: the other module's subject
        _assert_same_lookups(new, old, population)


@given(histories())
@settings(max_examples=150, deadline=None)
def test_lookups_equal_reference_routes(recorder, history):
    _replay(history, recorder)


# ----------------------------------------------------------------------
# The cases the memos have to get right, by construction
# ----------------------------------------------------------------------
MANY_KEYS = tuple(f"key-{i:04d}" for i in range(24))


def test_every_ref_of_a_level_offline(recorder):
    """A member whose references at one level all go offline routes
    through the complement side's first online member instead, and a
    member with nobody online on that side hands over to the responsible
    peer — and both change back when the references return."""
    population = PeerPopulation(48)
    new, old = _pair(population, range(0, 48, 2), recorder, refs_per_level=2)
    _assert_same_lookups(new, old, population, MANY_KEYS)
    origin = min(new._members)
    path = new._paths[origin]
    for level in range(len(path)):
        refs = new._refs[origin][level]
        for ref in refs:
            population.set_online(ref, False)
        _assert_same_lookups(new, old, population, MANY_KEYS)
        complement = path[:level] + ("1" if path[level] == "0" else "0")
        side = [p for p in new._members_under(complement) if p not in refs]
        for peer in side:  # now nobody on that side is online
            population.set_online(peer, False)
        _assert_same_lookups(new, old, population, MANY_KEYS)
        for peer in (*refs, *side):
            population.set_online(peer, True)
        _assert_same_lookups(new, old, population, MANY_KEYS)


def test_whole_leaves_offline(recorder):
    """Ownership falls to a sibling subtree while a leaf is dark, and
    returns to the leaf's smallest online member afterwards."""
    population = PeerPopulation(40)
    new, old = _pair(population, range(40), recorder)
    new._ensure_routing()
    leaves = sorted(new._leaf_members.items())
    assert any(len(members) > 1 for _, members in leaves)
    for _, members in leaves[::2]:
        for peer in members:
            population.set_online(peer, False)
        _assert_same_lookups(new, old, population, MANY_KEYS)
        population.set_online(members[-1], True)
        _assert_same_lookups(new, old, population, MANY_KEYS)
    for peer in range(40):
        population.set_online(peer, False)
    _assert_same_lookups(new, old, population, MANY_KEYS)


def test_memos_do_not_outlive_a_join_or_leave(recorder):
    """A rebuild deepens or flattens the trie: bits, leaves, owners and
    hops recorded for the old one must all be forgotten. The newcomers
    have the smaller ids, so they take over references and leaves."""
    population = PeerPopulation(64)
    new, old = _pair(population, range(32, 40), recorder)
    _assert_same_lookups(new, old, population, MANY_KEYS)
    depth = new._max_leaf_depth
    for dht in (new, old):
        dht.join_all(range(0, 32))
        dht.join_all(range(40, 64))
    _assert_same_lookups(new, old, population, MANY_KEYS)
    assert new._max_leaf_depth > depth
    for dht in (new, old):
        for peer in range(0, 36):
            leave(dht, peer)
    _assert_same_lookups(new, old, population, MANY_KEYS)
    for dht in (new, old):
        for peer in range(40, 64):
            leave(dht, peer)
    _assert_same_lookups(new, old, population, MANY_KEYS)
    assert new._max_leaf_depth <= depth


def test_per_key_memos_are_bounded(monkeypatch, recorder):
    """An open key universe does not grow the per-key memos without end:
    at ``KEY_MEMO_LIMIT`` entries they start over, mid-run, unnoticed."""
    from repro.dht import pgrid

    monkeypatch.setattr(pgrid, "KEY_MEMO_LIMIT", 7)
    population = PeerPopulation(24)
    new, old = _pair(population, range(24), recorder)
    _assert_same_lookups(new, old, population, MANY_KEYS)
    assert len(MANY_KEYS) > 7
    assert 0 < len(new._targets) <= 7
    assert 0 < len(new._located) <= 7


def test_lopsided_split_routes(recorder):
    """Two members sharing their first bit: one leaf, the empty path."""
    population = PeerPopulation(64)
    zeros = [p for p in range(64) if dht_id_for(p) >> 159 == 0][:2]
    new, old = _pair(population, zeros, recorder)
    new._ensure_routing()
    assert new._paths[zeros[0]] == ""
    _assert_same_lookups(new, old, population, MANY_KEYS)
    population.set_online(zeros[0], False)
    _assert_same_lookups(new, old, population, MANY_KEYS)


# ----------------------------------------------------------------------
# The mismatch level: one XOR and bit_length against the path scan
# ----------------------------------------------------------------------
def string_mismatch(path: str, target_bits: str):
    """The replaced per-hop scan: the first level at which ``path``
    leaves ``target_bits``, None when it is a prefix of them."""
    for level, bit in enumerate(path):
        if bit != target_bits[level]:
            return level
    return None


class _AskedHops(dict):
    """A next-hop memo that logs every ``(member, level)`` a route asks
    it for, hit or miss."""

    def __init__(self, memo, asked):
        super().__init__(memo)
        self.asked = asked

    def __getitem__(self, member_level):
        self.asked.append(member_level)
        return super().__getitem__(member_level)


class AskingPGrid(PGridDht):
    """``PGridDht`` whose routes log the mismatch levels they compute."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def _responsible(self, target):
        owner = super()._responsible(target)
        if type(self._next_hops) is dict:  # a fresh memo of a new view
            self._next_hops = _AskedHops(self._next_hops, self.asked)
        return owner


def scanned_requests(old, origin, key):
    """The ``(member, level)`` requests a route from ``origin`` makes,
    levels by the string scan, members along the reference route."""
    target = old.keyspace.hash_key(key)
    responsible = old._responsible(target)
    bits = old.keyspace.to_bits(target)
    current, asked = origin, []
    for _ in range(len(old._members) + old.keyspace.bits):
        if current == responsible:
            return asked
        level = string_mismatch(old._paths[current], bits)
        if level is not None:
            asked.append((current, level))
        current = old._next_hop(current, bits, responsible)
    return None  # does not converge: the other tests' subject


def _assert_same_mismatches(new, old, population, keys=KEYS):
    for origin in sorted(new._members):
        if not population.is_online(origin):
            continue
        for key in keys:
            expected = scanned_requests(old, origin, key)
            if expected is None:
                continue
            new.asked.clear()
            new.lookup(origin, key)
            assert new.asked == expected, (origin, key)


def _asking_pair(population, members, **kwargs):
    sides = []
    for cls in (AskingPGrid, ReferencePGrid):
        dht = cls(population, MessageMetrics(), **kwargs)
        dht.join_all(sorted(members))
        sides.append(dht)
    return sides


@given(histories())
@settings(max_examples=100, deadline=None)
def test_integer_mismatch_equals_the_path_scan(history):
    """Every hop of every route asks its next-hop memo for the level the
    string scan finds, through joins, leaves and liveness flips."""
    population = PeerPopulation(history.num_peers)
    for peer in history.offline:
        population.set_online(peer, False)
    new, old = _asking_pair(
        population, history.members, **dict(history.backend_kwargs)
    )
    _assert_same_mismatches(new, old, population)
    for op in history.ops:
        if op[0] == "join":
            for dht in (new, old):
                dht.join(op[1])
        elif op[0] == "leave":
            for dht in (new, old):
                leave(dht, op[1])
        elif op[0] == "flip":
            population.set_online(op[1], op[2])
        else:
            continue
        _assert_same_mismatches(new, old, population)


def test_integer_mismatch_at_a_shallow_leaf():
    """The empty path (a lopsided split) never mismatches: its XOR is 0."""
    population = PeerPopulation(64)
    zeros = [p for p in range(64) if dht_id_for(p) >> 159 == 0][:2]
    new, old = _asking_pair(population, zeros)
    new._ensure_routing()
    assert new._codes[zeros[0]] == (0, 0, 0)
    _assert_same_mismatches(new, old, population, MANY_KEYS)
    assert not new.asked


def test_integer_mismatch_beside_offline_siblings():
    """A member in the target's leaf, its smaller siblings offline: its
    path is a prefix of the target, so it asks for no level and hands the
    lookup to the responsible sibling; members of shallower and deeper
    leaves than the target's keep asking the scanned levels."""
    population = PeerPopulation(40)
    new, old = _asking_pair(population, range(40))
    new._ensure_routing()
    leaves = [m for _, m in sorted(new._leaf_members.items()) if len(m) > 1]
    assert leaves
    assert len({len(path) for path in new._leaf_members}) > 1
    for members in leaves:
        population.set_online(members[0], False)
        _assert_same_mismatches(new, old, population, MANY_KEYS)
    straight = 0
    for members in leaves:
        for key in MANY_KEYS:
            target = new.keyspace.hash_key(key)
            if new._locate(target) != new._paths[members[-1]]:
                continue
            new.asked.clear()
            result = new.lookup(members[-1], key)
            if result.responsible != members[-1]:
                assert not new.asked and result.messages == 1
                straight += 1
    assert straight


# ----------------------------------------------------------------------
# A route that does not converge
# ----------------------------------------------------------------------
class _PingPong:
    """Forwards every hop to a member that is never the responsible one."""

    def _bounce(self, current: PeerId, responsible: PeerId) -> PeerId:
        return next(
            m for m in sorted(self._members)
            if m != current and m != responsible
        )


class NewLostPGrid(_PingPong, PGridDht):
    def _next_hop(self, current, mismatch):
        return self._bounce(current, None)


class OldLostPGrid(_PingPong, ReferencePGrid):
    def _next_hop(self, current, target_bits, responsible):
        if target_bits.startswith(self._paths[current]):
            return responsible  # no mismatch level: not a memoised hop
        return self._bounce(current, None)


def test_a_route_that_does_not_converge_is_still_counted(recorder):
    population = PeerPopulation(8)
    sides = []
    for cls in (NewLostPGrid, OldLostPGrid):
        dht = cls(population, MessageMetrics())
        dht.counted = recorder(dht.metrics).calls
        dht.join_all(range(8))
        sides.append(dht)
    new, old = sides
    limit = 8 + new.keyspace.bits
    raised = 0
    for key in KEYS:
        for origin in range(8):
            got = _outcome(new.lookup, origin, key)
            assert got == _outcome(old.lookup, origin, key)
            raised += not isinstance(got, LookupResult)
    assert raised
    assert _observable(new) == _observable(old)
    # the guard fires after the hop that exceeds the limit was taken
    assert new.metrics.total(MessageCategory.INDEX_SEARCH) >= limit + 1
