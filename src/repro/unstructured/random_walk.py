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
from repro.errors import ParameterError
from repro.net.messages import MessageKind
from repro.net.node import PeerId
from repro.sim.rng import BoundedStream
from repro.unstructured.overlay import UnstructuredOverlay

__all__ = ["WalkResult", "RandomWalkSearch"]


@dataclass(slots=True)
class WalkResult:
    """Outcome and cost of one multi-walker search."""

    key: Hashable
    found: bool
    value: object
    holder: Optional[PeerId]
    messages: int
    distinct_peers: int
    steps: int

    @property
    def duplication_factor(self) -> float:
        """Measured ``dup``: messages per distinct peer visited."""
        if self.distinct_peers == 0:
            return 0.0
        return self.messages / self.distinct_peers


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
    keys downstream all depend on that sequence; the draws are served by
    one :class:`repro.sim.rng.BoundedStream` the walker holds for its
    lifetime, and ``tests/unstructured/test_walk_equivalence.py`` holds
    this loop to the scalar-draw loop it replaced.

    A search trapped in an online component with no replica — the
    walkers have content-checked every peer of it — cannot find the key,
    and no walker dies there, so its result is fixed: ``walkers`` hops
    for each remaining step, ``steps = ttl``, the component as
    ``distinct_peers``. Such a search stops walking hop by hop (counted
    as ``walk.trapped``) and only advances the stream as the remaining
    steps would have: nothing in a two-peer component, ``ceil(R/2)``
    draws per walker at the centre and ``floor(R/2)`` per walker on a
    leaf of a star over the ``R`` remaining steps (one
    :meth:`~repro.sim.rng.BoundedStream.skip`), and otherwise a loop that
    only moves the walkers and draws. An audited search (the log keeps
    every hop) and a key that is not a ``str`` (whose ``__eq__`` could
    observe the skipped content checks) always walk hop by hop.

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
        if walkers < 1:
            raise ParameterError(f"walkers must be >= 1, got {walkers}")
        if ttl < 1:
            raise ParameterError(f"ttl must be >= 1, got {ttl}")
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
        overlay.population[origin].require_online()
        obs.count("walk.searches")

        if overlay.peer_has(origin, key):
            return WalkResult(
                key=key,
                found=True,
                value=overlay.value_at(origin, key),
                holder=origin,
                messages=0,
                distinct_peers=1,
                steps=0,
            )

        # This loop is the event substrate's hot path (a failed search
        # under churn is walkers * ttl hops), so per hop it does one index
        # into the topology's online-adjacency table and one block-served
        # draw; the hops are counted in one call when the search ends.
        neighbors_of = overlay.topology.online_adjacency()
        peers = overlay.population.peers
        log = overlay.log
        audited = log.keep_messages
        hops: list[tuple[PeerId, PeerId]] = []  # collected only if audited
        draw = self._stream.draw

        positions: list[Optional[PeerId]] = [origin] * self.walkers
        visited: set[PeerId] = {origin}
        messages = 0
        found_at: Optional[PeerId] = None
        step = 0
        # Trap detection: after a step that reached no new peer, look for
        # a visited peer with an unvisited online neighbour, the last one
        # found first.
        may_trap = not audited and type(key) is str
        seen = 1
        open_peer: Optional[PeerId] = origin
        try:
            for step in range(1, self.ttl + 1):
                any_alive = False
                for i, position in enumerate(positions):
                    if position is None:
                        continue
                    neighbors = neighbors_of[position]
                    fanout = len(neighbors)
                    if fanout > 1:
                        nxt = neighbors[draw(fanout)]
                    elif fanout:
                        nxt = neighbors[0]  # forced move: no draw
                    else:
                        positions[i] = None  # dead end: walker dies
                        continue
                    if audited:
                        hops.append((position, nxt))
                    messages += 1
                    visited.add(nxt)
                    positions[i] = nxt
                    any_alive = True
                    # nxt came from the online table, so peer_has(nxt, key)
                    # reduces to the content check.
                    if key in peers[nxt].content:
                        found_at = nxt
                if found_at is not None or not any_alive:
                    break
                if may_trap and len(visited) == seen:
                    open_peer = _open_peer(visited, neighbors_of, open_peer)
                    if open_peer is None:
                        # Every peer reachable was checked: the rest of the
                        # search is fixed (see the class notes).
                        remaining = self.ttl - step
                        messages += len(positions) * remaining
                        self._run_out(
                            positions, neighbors_of, visited, remaining
                        )
                        step = self.ttl
                        break
                seen = len(visited)
        finally:
            if messages:
                log.send_all(MessageKind.QUERY_WALK, messages, hops, key)
                obs.count("walk.hops", messages)

        if found_at is None:
            obs.count("walk.failed")
        return WalkResult(
            key=key,
            found=found_at is not None,
            value=(
                overlay.value_at(found_at, key) if found_at is not None else None
            ),
            holder=found_at,
            messages=messages,
            distinct_peers=len(visited),
            steps=step,
        )

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
        branching = [p for p in component if len(neighbors_of[p]) > 1]
        if not branching:
            return  # two peers: every move is forced
        if len(branching) == 1:
            # A star: each walker alternates between the centre, where it
            # draws, and a leaf, where its move is forced.
            centre = branching[0]
            at_centre = positions.count(centre)
            at_leaf = len(positions) - at_centre
            draws = at_centre * ((remaining + 1) // 2)
            draws += at_leaf * (remaining // 2)
            self._stream.skip(len(neighbors_of[centre]), draws)
            return
        draw = self._stream.draw
        for _ in range(remaining):
            for i, position in enumerate(positions):
                neighbors = neighbors_of[position]
                fanout = len(neighbors)
                positions[i] = neighbors[draw(fanout) if fanout > 1 else 0]


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
