"""Gnutella-like overlay topologies.

The paper assumes "a Gnutella-like topology, where each peer has a few open
connections to other peers" (Section 3.1). Measured Gnutella graphs have a
heavy-tailed degree distribution with a small-world core; we offer two
generators behind one interface:

* ``random_regular`` — every peer keeps exactly ``degree`` connections
  (the cleanest match to "a few open connections"), and
* ``barabasi_albert`` — preferential attachment, matching the measured
  heavy-tailed degree distributions of deployed Gnutella networks.

Either way the object exposes neighbour lookup restricted to *online*
peers, which is what search algorithms traverse under churn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Literal

import numpy as np

from repro.errors import TopologyError
from repro.net.node import PeerId, PeerPopulation

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_gnutella_graph", "GnutellaTopology"]

TopologyKind = Literal["random_regular", "barabasi_albert"]


def build_gnutella_graph(
    num_peers: int,
    degree: int,
    rng: np.random.Generator,
    kind: TopologyKind = "random_regular",
) -> nx.Graph:
    """Build a connected Gnutella-like overlay graph.

    Parameters
    ----------
    num_peers:
        Number of vertices (one per peer, labelled ``0..num_peers-1``).
    degree:
        Connections per peer. For ``barabasi_albert`` this is the attachment
        parameter ``m`` (mean degree ~= 2m).
    rng:
        Source of randomness (a numpy Generator, for reproducibility).
    kind:
        Graph family, see module docstring.

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
    import networkx as nx  # on first use: vectorized and warm runs never load it

    seed = int(rng.integers(0, 2**31 - 1))
    if kind == "random_regular":
        if (degree * num_peers) % 2 != 0:
            raise TopologyError(
                f"random regular graph needs even degree*num_peers "
                f"(got {degree}*{num_peers})"
            )
        graph = nx.random_regular_graph(degree, num_peers, seed=seed)
    elif kind == "barabasi_albert":
        graph = nx.barabasi_albert_graph(num_peers, degree, seed=seed)
    else:
        raise TopologyError(f"unknown topology kind: {kind!r}")

    # Random regular graphs of degree >= 3 are connected w.h.p.; patch up
    # the rare disconnected draw by bridging components so searches can in
    # principle reach every peer (the paper assumes any existing key is
    # findable).
    if not nx.is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        for left, right in zip(components, components[1:]):
            graph.add_edge(left[0], right[0])
    return graph


class GnutellaTopology:
    """An overlay graph plus liveness-aware neighbour queries.

    The static graph models the peers' configured connections; under churn
    only edges between two *online* peers are usable, which is what
    :meth:`online_neighbors` returns.
    """

    def __init__(
        self,
        population: PeerPopulation,
        degree: int,
        rng: np.random.Generator,
        kind: TopologyKind = "random_regular",
    ) -> None:
        self.population = population
        self.degree = degree
        self.kind = kind
        self.graph = build_gnutella_graph(len(population), degree, rng, kind)
        # The graph is static after construction: sort each row once.
        self._adjacency = tuple(
            tuple(sorted(self.graph.neighbors(peer_id)))
            for peer_id in range(len(population))
        )
        self._online_adjacency: list[tuple[PeerId, ...]] = []
        self._online_epoch = -1

    def neighbors(self, peer_id: PeerId) -> list[PeerId]:
        """All configured neighbours, regardless of liveness."""
        return list(self._adjacency[peer_id])

    def online_adjacency(self) -> list[tuple[PeerId, ...]]:
        """Every peer's online neighbours (ascending), indexed by peer id.

        Rebuilt on the first call after the population's
        ``liveness_epoch`` moved, so search loops pay one list index per
        hop. Read-only; do not hold it across a liveness change.
        """
        epoch = self.population.liveness_epoch
        if epoch != self._online_epoch:
            online = self.population.online_ids
            self._online_adjacency = [
                tuple([n for n in row if n in online])
                for row in self._adjacency
            ]
            self._online_epoch = epoch
        return self._online_adjacency

    def online_neighbors(self, peer_id: PeerId) -> list[PeerId]:
        """Configured neighbours that are currently online."""
        return list(self.online_adjacency()[peer_id])

    def online_subgraph_nodes(self) -> Iterable[PeerId]:
        """Ids of online peers (vertices of the live overlay)."""
        return self.population.online_ids

    def measured_duplication_factor(self, sample_floods: int = 0) -> float:
        """Mean edges-per-vertex ratio seen by a flood (lower bound on dup).

        A full flood traverses every edge between reached peers at least
        once; with ``E`` usable edges and ``V`` reached peers the per-peer
        message overhead is ``2E / V`` in the worst case. This diagnostic
        reports the graph-level ratio; the *effective* ``dup`` of a search
        algorithm is measured by the search implementations themselves.
        """
        nodes = [n for n in self.graph.nodes if self.population.is_online(n)]
        if not nodes:
            return 0.0
        live = self.graph.subgraph(nodes)
        if live.number_of_nodes() == 0:
            return 0.0
        return 2.0 * live.number_of_edges() / live.number_of_nodes()
