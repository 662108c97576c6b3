"""The Gnutella-like overlay topology.

The paper assumes "a Gnutella-like topology, where each peer has a few open
connections to other peers" (Section 3.1): a random regular graph, every
peer keeping exactly ``degree`` connections. :class:`GnutellaTopology`
exposes neighbour lookup restricted to *online* peers, which is what
search algorithms traverse under churn.

A graph is a pure function of ``(nodes, degree, seed)``, and the
substrates of one figure draw the same seeds (each strategy's network
comes from the same root seed), so :func:`bridged_regular_rows` is
memoised per process: the overlay and every replica-group graph are
paired once per figure, not once per network. The rows it returns are
shared by every caller and are tuples, never mutated.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.errors import TopologyError
from repro.net.node import PeerId, PeerPopulation

__all__ = [
    "bridged_regular_rows", "gnutella_rows", "GnutellaTopology",
    "REGULAR_ROWS_MEMO",
]

#: Graphs :func:`bridged_regular_rows` keeps: the overlay and the replica
#: groups of a substrate at the default scale (1 + 23 graphs) fit. A
#: larger substrate (Table 1's has 400 groups) cycles through it without
#: hits, and holds no more than this many graphs beside its own rows.
REGULAR_ROWS_MEMO = 64


def _regular_edges(
    num_nodes: int, degree: int, rng: random.Random
) -> Optional[set[tuple[int, int]]]:
    """One attempt at pairing ``degree`` stubs per node into simple edges
    (Steger & Wormald); ``None`` when the leftover stubs admit no edge."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(num_nodes)) * degree
    while stubs:
        leftover: defaultdict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        stub_iter = iter(stubs)
        for s1, s2 in zip(stub_iter, stub_iter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if not _suitable(edges, leftover):
            return None
        stubs = [node for node, count in leftover.items() for _ in range(count)]
    return edges


def _suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
    """Whether some pair of nodes with leftover stubs can still be joined.

    Kept statement for statement, the swap that rebinds the outer loop's
    ``s1`` included: which pairs get tested decides when an attempt is
    abandoned, and so which graph a seed produces.
    """
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _bridge_components(rows: list[list[int]]) -> None:
    """Chain the components of ``rows`` through their smallest members,
    taking the components in order of that member."""
    seen: set[int] = set()
    smallest: list[int] = []
    for node in range(len(rows)):
        if node in seen:
            continue
        smallest.append(node)
        seen.add(node)
        stack = [node]
        while stack:
            for neighbor in rows[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
    for left, right in zip(smallest, smallest[1:]):
        rows[left].append(right)
        rows[right].append(left)


@obs.counted_cache("regular_rows", maxsize=REGULAR_ROWS_MEMO)
def bridged_regular_rows(
    num_nodes: int, degree: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Neighbour rows of a connected random ``degree``-regular graph.

    The one implementation of "random regular graph, bridged" — the
    Gnutella overlay, every replica-group subnetwork and the structural
    flood probe are all this graph. It is
    ``networkx.random_regular_graph(degree, num_nodes, seed=seed)`` ported
    to the stdlib generator that call seeds: the same stub shuffles and
    the same ``edges`` set built by the same insertions, so row ``v``
    lists ``v``'s neighbours in the order ``networkx`` would
    (``tests/net/test_regular_equivalence.py``). Random regular graphs of
    degree >= 3 are connected w.h.p.; the rare disconnected draw gets one
    edge between the smallest members of consecutive components, so
    searches can in principle reach every peer (the paper assumes any
    existing key is findable).

    Memoised (``cache.regular_rows.*``): equal arguments return the same
    rows, which is why they are immutable.
    """
    if (num_nodes * degree) % 2 != 0 or not 0 <= degree < num_nodes:
        raise TopologyError(
            f"no {degree}-regular graph on {num_nodes} nodes "
            f"(need even degree*nodes and 0 <= degree < nodes)"
        )
    rng = random.Random(seed)
    edges = _regular_edges(num_nodes, degree, rng)
    while edges is None:
        edges = _regular_edges(num_nodes, degree, rng)
    rows: list[list[int]] = [[] for _ in range(num_nodes)]
    for left, right in edges:
        rows[left].append(right)
        rows[right].append(left)
    _bridge_components(rows)
    return tuple(map(tuple, rows))


def gnutella_rows(
    num_peers: int,
    degree: int,
    rng: np.random.Generator,
) -> tuple[tuple[PeerId, ...], ...]:
    """Neighbour rows (unsorted, shared: see :func:`bridged_regular_rows`)
    of a connected Gnutella-like overlay.

    Parameters
    ----------
    num_peers:
        Number of vertices (one per peer, labelled ``0..num_peers-1``).
    degree:
        Connections per peer.
    rng:
        Source of randomness (a numpy Generator, for reproducibility); one
        integer is drawn from it to seed the graph.

    Raises
    ------
    TopologyError
        If the parameters are infeasible (e.g. ``degree >= num_peers`` or an
        odd ``degree * num_peers`` for a regular graph).
    """
    if num_peers < 2:
        raise TopologyError(f"need at least 2 peers, got {num_peers}")
    if degree < 1:
        raise TopologyError(f"degree must be >= 1, got {degree}")
    if degree >= num_peers:
        raise TopologyError(
            f"degree ({degree}) must be < num_peers ({num_peers})"
        )
    return bridged_regular_rows(
        num_peers, degree, int(rng.integers(0, 2**31 - 1))
    )


class GnutellaTopology:
    """An overlay graph plus liveness-aware neighbour queries.

    The static graph models the peers' configured connections; under churn
    only edges between two *online* peers are usable, which is what
    :meth:`online_adjacency` holds.
    """

    def __init__(
        self,
        population: PeerPopulation,
        degree: int,
        rng: np.random.Generator,
    ) -> None:
        self.population = population
        self.degree = degree
        # The overlay is static after construction: sort each row once.
        self._adjacency = tuple(
            tuple(sorted(row))
            for row in gnutella_rows(len(population), degree, rng)
        )
        self._online_adjacency: list[tuple[PeerId, ...]] = []
        self._online_epoch = -1

    def online_adjacency(self) -> list[tuple[PeerId, ...]]:
        """Every peer's online neighbours (ascending), indexed by peer id.

        Brought up to date on the first call after the population's
        ``liveness_epoch`` moved, so search loops pay one list index per
        hop. A flip changes only the rows of the flipped peer's
        neighbours (a peer's own liveness does not filter its own row):
        those rows are recomputed into a copy of the table, and the whole
        table is rebuilt only when the population's flip log no longer
        reaches back to the last call. Read-only; do not hold it across a
        liveness change.
        """
        epoch = self.population.liveness_epoch
        if epoch != self._online_epoch:
            adjacency = self._adjacency
            flipped = self.population.flipped_since(self._online_epoch)
            if flipped is None:
                stale: Iterable[PeerId] = range(len(adjacency))
                rows: list[tuple[PeerId, ...]] = [()] * len(adjacency)
                obs.count("overlay.rows.rebuild")
            else:
                # Each stale row once, however many of its peers flipped
                # and however often.
                stale = set()
                for peer in flipped:
                    stale.update(adjacency[peer])
                rows = list(self._online_adjacency)
                obs.count("overlay.rows.patched", len(stale))
            is_online = self.population.is_online
            for peer in stale:
                rows[peer] = tuple([n for n in adjacency[peer] if is_online(n)])
            self._online_adjacency = rows
            self._online_epoch = epoch
        return self._online_adjacency
