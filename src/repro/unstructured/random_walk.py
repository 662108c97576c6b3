"""Multiple random walks — the [LvCa02] search the paper assumes.

Instead of flooding, the querying peer launches ``k`` walkers; each walker
moves to a uniformly random online neighbour every step and checks the
local store. Walkers terminate on success (with periodic "checking back",
approximated here by shared success state), when their TTL expires, or when
they reach a dead end. With random replication factor ``repl`` the expected
number of *distinct* peers that must be probed is ``numPeers / repl``, and
revisits inflate the message count by the duplication factor ``dup`` that
Eq. 6 charges — both quantities are measured and reported per search so the
simulated ``cSUnstr`` can be checked against the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro import obs
from repro.errors import require_count
from repro.net.node import PeerId
from repro.sim.metrics import MessageCategory
from repro.sim.rng import CHUNK_WORDS, BoundedStream, reduce_words
from repro.unstructured.overlay import UnstructuredOverlay

__all__ = ["WalkResult", "RandomWalkSearch"]


@dataclass(slots=True)
class WalkResult:
    """Outcome and cost of one multi-walker search."""

    key: Hashable
    found: bool
    value: object
    messages: int
    distinct_peers: int
    steps: int


class RandomWalkSearch:
    """k-walker random-walk search over an unstructured overlay.

    Parameters
    ----------
    overlay:
        The overlay to search.
    rng:
        Randomness for walker routing.
    walkers:
        Number of parallel walkers ``k`` ([LvCa02] recommends 16-64).
    ttl:
        Maximum steps per walker; the default is generous enough that an
        existing key is found with near-certainty (the paper assumes the
        search "finds any key if it exists in the network").

    Notes
    -----
    Stream contract: a search consumes ``rng`` exactly as one
    ``rng.integers(0, n)`` per hop taken from a peer with ``n >= 2``
    online neighbours would, in walker order within each step, and
    nothing for a forced move (one online neighbour), a dead end or an
    origin that holds the key. Calibrated costs, pinned figures and store
    keys downstream all depend on that sequence. The draws come from one
    :class:`repro.sim.rng.BoundedStream` the walker holds for its
    lifetime, and each is numpy's Lemire reduction of raw 32-bit words
    (``(w * n) >> 32``, the word rejected and the next one taken when
    the low half of ``w * n`` falls under ``(2**32 - n) % n``). The hop
    loop applies it inline to the stream's word block (a word that may
    be rejected goes back to :meth:`~repro.sim.rng.BoundedStream.draw`);
    a trapped search's tail applies it in bulk (below), the same pass
    flagging the rejected words. ``tests/unstructured/test_walk_equivalence.py``
    holds the search to the scalar-draw loop it replaced, and
    ``tests/unstructured/test_run_out.py`` holds the bulk tail to the
    move-and-draw loop it replaced, generator state included.

    A hop's content check is one bit of the key's holder mask
    (:attr:`UnstructuredOverlay.content`): the search reads the key's
    record once, and the origin's check and the found payload come from
    it too.

    A search trapped in an online component with no replica — the
    walkers have content-checked every peer of it — cannot find the key,
    and no walker dies there, so its result is fixed: ``walkers`` hops
    for each remaining step, ``steps = ttl``, the component as
    ``distinct_peers``. Such a search stops walking hop by hop (counted
    as ``walk.trapped``) and only advances the stream as the remaining
    steps would have: nothing in a two-peer component, ``ceil(R/2)``
    draws per walker at the centre and ``floor(R/2)`` per walker on a
    leaf of a star over the ``R`` remaining steps (one
    :meth:`~repro.sim.rng.BoundedStream.skip`), and otherwise a bulk pass
    over chunks of words that moves only the walkers (see
    :func:`_walk_tail`); each tail is timed as the ``walk.run_out`` span.

    The walker owns the generator it was given (or the stream, when
    handed a ``RandomStreams.bounded`` one): between searches the
    generator itself runs ahead of the draws, so read it only through
    :attr:`rng`.
    """

    def __init__(
        self,
        overlay: UnstructuredOverlay,
        rng: np.random.Generator | BoundedStream,
        walkers: int = 32,
        ttl: int = 4096,
    ) -> None:
        require_count("walkers", walkers, 1)
        require_count("ttl", ttl, 1)
        self.overlay = overlay
        self._stream = rng if isinstance(rng, BoundedStream) else BoundedStream(rng)
        self.walkers = walkers
        self.ttl = ttl

    @property
    def rng(self) -> np.random.Generator:
        """The walk generator, in the state the searches so far left it."""
        return self._stream.rng

    def search(self, origin: PeerId, key: Hashable) -> WalkResult:
        """Search for ``key`` starting from online peer ``origin``.

        Walkers advance in lock-step (round-robin), which models the
        [LvCa02] "check back with the originator" behaviour: as soon as one
        walker succeeds, the remaining walkers stop at the end of the
        current step instead of running their full TTL.
        """
        overlay = self.overlay
        overlay.population.require_online(origin)
        obs.count("walk.searches")

        # The key's holder record, read once: the origin's check, every
        # hop's and the found payload all come from it.
        record = overlay.content.get(key)
        mask = record.mask if record is not None else 0
        if (mask >> origin) & 1:
            return WalkResult(key, True, record.value, 0, 1, 0)

        # This loop is the event substrate's hot path (a failed search
        # under churn is walkers * ttl hops), so per hop it does one index
        # into the topology's online-adjacency table, one draw reduced
        # inline from the stream's word block and one bit test of the
        # key's holder mask. A step's hops are the walkers still alive
        # after it (a dead walker never moves again), added once per
        # step; the search's hops are counted in one call when it ends.
        neighbors_of = overlay.topology.online_adjacency()

        positions: list[Optional[PeerId]] = [origin] * self.walkers
        visited: set[PeerId] = {origin}
        messages = 0
        found_at: Optional[PeerId] = None
        step = 0
        # Trap detection: after a step that reached no new peer, look for
        # a visited peer with an unvisited online neighbour, the last one
        # found first.
        seen = 1
        open_peer: Optional[PeerId] = origin
        alive = len(positions)
        stream = self._stream
        words, used = stream.open_block()
        available = len(words)
        try:
            for step in range(1, self.ttl + 1):
                for i, position in enumerate(positions):
                    if position is None:
                        continue
                    neighbors = neighbors_of[position]
                    fanout = len(neighbors)
                    if fanout > 1:
                        # BoundedStream.draw(fanout), inline.
                        if used == available:
                            words = stream.next_block()
                            available = len(words)
                            used = 0
                        product = words[used] * fanout
                        used += 1
                        if product & 0xFFFFFFFF < fanout:
                            # The word may be rejected: let draw decide.
                            stream.close_block(used - 1)
                            nxt = neighbors[stream.draw(fanout)]
                            words, used = stream.open_block()
                            available = len(words)
                        else:
                            nxt = neighbors[product >> 32]
                    elif fanout:
                        nxt = neighbors[0]  # forced move: no draw
                    else:
                        positions[i] = None  # dead end: walker dies
                        alive -= 1
                        continue
                    visited.add(nxt)
                    positions[i] = nxt
                    # nxt came from the online table, so peer_has(nxt, key)
                    # reduces to the content check.
                    if (mask >> nxt) & 1:
                        found_at = nxt
                messages += alive
                if found_at is not None or not alive:
                    break
                if len(visited) == seen:
                    open_peer = _open_peer(visited, neighbors_of, open_peer)
                    if open_peer is None:
                        # Every peer reachable was checked: the rest of the
                        # search is fixed (see the class notes).
                        remaining = self.ttl - step
                        messages += len(positions) * remaining
                        stream.close_block(used)
                        used = None  # the run-out keeps its own count
                        self._run_out(
                            positions, neighbors_of, visited, remaining
                        )
                        step = self.ttl
                        break
                seen = len(visited)
        finally:
            if used is not None:
                stream.close_block(used)
            if messages:
                overlay.metrics.count(
                    MessageCategory.UNSTRUCTURED_SEARCH, messages
                )
                obs.count("walk.hops", messages)

        if found_at is None:
            obs.count("walk.failed")
            return WalkResult(key, False, None, messages, len(visited), step)
        return WalkResult(key, True, record.value, messages, len(visited), step)

    def _run_out(
        self,
        positions: list[PeerId],
        neighbors_of: list[tuple[PeerId, ...]],
        component: set[PeerId],
        remaining: int,
    ) -> None:
        """Advance the stream as ``remaining`` more steps of walkers
        trapped in ``component`` would, and move nothing else.

        Every peer of a component of two or more has an online neighbour,
        so every walker is alive and hops once per step.
        """
        obs.count("walk.trapped")
        with obs.span("walk.run_out"):
            stream = self._stream
            branching = [p for p in component if len(neighbors_of[p]) > 1]
            if not branching:
                return  # two peers: every move is forced
            if len(branching) == 1:
                # A star: each walker alternates between the centre, where
                # it draws, and a leaf, where its move is forced.
                centre = branching[0]
                at_centre = positions.count(centre)
                at_leaf = len(positions) - at_centre
                draws = at_centre * ((remaining + 1) // 2)
                draws += at_leaf * (remaining // 2)
                stream.skip(len(neighbors_of[centre]), draws)
                return
            _walk_tail(stream, positions, neighbors_of, component, remaining)


def _walk_tail(
    stream: BoundedStream,
    positions: list[PeerId],
    neighbors_of: list[tuple[PeerId, ...]],
    component: set[PeerId],
    remaining: int,
) -> None:
    """Consume from ``stream`` what ``remaining`` lock-step hops of the
    walkers at ``positions`` would, in a component that is neither a pair
    nor a star.

    The component's peers get local ids once. Then, a chunk of at most
    ``CHUNK_WORDS`` words at a time, numpy reduces every word for every
    fanout present (:func:`~repro.sim.rng.reduce_words`), and Python only
    follows the walkers through lists: a leaf goes to its one neighbour
    and takes no word, a branching peer goes to its neighbour number
    ``row[u]`` of its fanout's row and takes word ``u`` — or the next
    word while the row flags ``u`` as rejected. Words the chunk fetched
    but no walker took go back to the stream.
    """
    peers = list(component)
    local = {peer: i for i, peer in enumerate(peers)}
    adjacent = [tuple(local[n] for n in neighbors_of[peer]) for peer in peers]
    fanouts = {len(a) for a in adjacent if len(a) > 1}
    at = [local[peer] for peer in positions]
    walkers = range(len(at))
    per_chunk = max(1, CHUNK_WORDS // len(at))
    while remaining:
        steps = min(per_chunk, remaining)
        remaining -= steps
        # A walker-step takes one word at most, plus each word its fanout
        # rejects: fetch until no walker can run off the end.
        owed = steps * len(at)
        words = stream.borrow(owed)
        u = 0
        try:
            while True:
                draws = {f: reduce_words(words, f) for f in fanouts}
                rejected = np.logical_or.reduce([d < 0 for d in draws.values()])
                short = owed + int(np.count_nonzero(rejected)) - len(words)
                if short <= 0:
                    break
                words = np.concatenate([words, stream.borrow(short)])
            rows = {fanout: row.tolist() for fanout, row in draws.items()}
            row_of = [rows[len(a)] if len(a) > 1 else None for a in adjacent]
            for _ in range(steps):
                for w in walkers:
                    peer = at[w]
                    row = row_of[peer]
                    if row is None:
                        at[w] = adjacent[peer][0]
                        continue
                    pick = row[u]
                    u += 1
                    while pick < 0:
                        pick = row[u]
                        u += 1
                    at[w] = adjacent[peer][pick]
        finally:
            stream.repay(u)


def _open_peer(
    visited: set[PeerId],
    neighbors_of: list[tuple[PeerId, ...]],
    hint: PeerId,
) -> Optional[PeerId]:
    """A peer of ``visited`` with an online neighbour outside it, trying
    ``hint`` first; ``None`` when ``visited`` is its whole online
    component."""
    if not visited.issuperset(neighbors_of[hint]):
        return hint
    for peer in visited:
        if not visited.issuperset(neighbors_of[peer]):
            return peer
    return None
