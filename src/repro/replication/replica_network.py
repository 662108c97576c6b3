"""The unstructured subnetwork connecting the replicas of one key group.

Each replica group (the ``repl`` peers responsible for a key, or in
practice for a partition of keys) keeps a sparse random graph among its
members. :meth:`ReplicaNetwork.flood` asks every reachable replica
whether it has a fresh copy: Eq. 16 charges this as ``repl * dup2``
messages on top of the DHT lookup, and Eq. 9 charges the same flood per
update.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import obs
from repro.errors import ParameterError, TopologyError
from repro.net.node import PeerId, PeerPopulation
from repro.net.topology import bridged_regular_rows
from repro.sim.metrics import MessageCategory, MessageMetrics

__all__ = ["group_rows", "ReplicaNetwork"]


def group_rows(
    size: int, degree: int, rng: np.random.Generator
) -> tuple[tuple[int, ...], ...]:
    """Neighbour rows, by position in the group, of the sparse connected
    graph a replica group of ``size`` members keeps among itself.

    A bridged random regular graph of degree ``min(degree, size - 1)``,
    one lower when ``degree * size`` would be odd; ``rng`` supplies its
    seed. Degree 1 over an odd group has no such graph and gets a cycle,
    drawing nothing. The rows may be shared with other groups of the
    same seed (:func:`~repro.net.topology.bridged_regular_rows`).
    """
    if size == 1:
        return ((),)
    d = min(degree, size - 1)
    if (d * size) % 2 != 0:
        # Regular graphs need even degree*size; nudge the degree down.
        d = max(1, d - 1)
    if (d * size) % 2 != 0:
        return tuple(((v - 1) % size, (v + 1) % size) for v in range(size))
    return bridged_regular_rows(size, d, int(rng.integers(0, 2**31 - 1)))


class ReplicaNetwork:
    """A small random graph over one replica group.

    Parameters
    ----------
    population:
        Shared peer population (liveness source).
    members:
        The replica group (e.g. the ``repl`` holders of a key).
    rng:
        Randomness for graph construction.
    degree:
        Connections per replica; small (the paper's replica subnetworks are
        sparse so that flooding them costs ~``repl * dup2``).
    metrics:
        Where the flood messages are counted.

    The online rows and the flood plans derived from them depend only on
    the liveness of the group's own members: a flip of any other peer
    keeps them, and a flip of a member drops them all (see
    :meth:`online_adjacency`).
    """

    def __init__(
        self,
        population: PeerPopulation,
        members: list[PeerId],
        rng: np.random.Generator,
        metrics: MessageMetrics,
        degree: int = 3,
    ) -> None:
        if len(set(members)) != len(members):
            raise ParameterError("replica group contains duplicates")
        if len(members) < 1:
            raise ParameterError("replica group must not be empty")
        if degree < 1:
            raise TopologyError(f"degree must be >= 1, got {degree}")
        self.population = population
        self.members = list(members)
        self.metrics = metrics
        # The group graph never changes after construction; the online
        # rows and the flood plans derived from them are valid until one
        # of the members flips.
        self._adjacency: dict[PeerId, tuple[PeerId, ...]] = {
            member: tuple(sorted(self.members[i] for i in row))
            for member, row in zip(
                self.members, group_rows(len(self.members), degree, rng)
            )
        }
        self._online_adjacency: dict[PeerId, tuple[PeerId, ...]] = {}
        self._flood_plans: dict[PeerId, tuple[tuple[PeerId, ...], int]] = {}
        self._online_epoch = -1

    # ------------------------------------------------------------------
    def online_adjacency(self) -> dict[PeerId, tuple[PeerId, ...]]:
        """Every member's online neighbours (ascending), by member.

        Rebuilt, and the flood plans dropped, on the first call after a
        member flipped (or after more flips than the population's flip log
        keeps), so a flood pays one dict lookup per reached replica. When
        only non-members flipped since the last call, the rows and plans
        are kept. Read-only; do not hold it across a liveness change.
        """
        epoch = self.population.liveness_epoch
        if epoch != self._online_epoch:
            if self.population.any_flipped_since(
                self._online_epoch, self._adjacency.keys()
            ):
                is_online = self.population.is_online
                self._online_adjacency = {
                    member: tuple([n for n in row if is_online(n)])
                    for member, row in self._adjacency.items()
                }
                self._flood_plans = {}
                obs.count("replica.plans.rebuild")
            self._online_epoch = epoch
        return self._online_adjacency

    # ------------------------------------------------------------------
    def flood(self, origin: PeerId) -> tuple[tuple[PeerId, ...], int]:
        """Flood the subnetwork from ``origin``; returns (reached,
        messages).

        ``reached`` is every replica the flood reaches, in the order it
        reaches them, ``origin`` first (read-only: it is the flood plan
        itself); what a caller asks of them — "has a live copy of key
        k" — is the caller's, and may stop at the first answer. Every
        traversed edge costs one message, duplicates included — this is
        where the measured ``dup2`` comes from. The messages of one flood
        are counted together.
        """
        if origin not in self._adjacency:
            raise ParameterError(f"peer {origin} is not in this replica group")
        self.population.require_online(origin)
        reached, messages = self._flood_plan(origin)
        self.metrics.count(MessageCategory.REPLICA_FLOOD, messages)
        obs.count("replica.floods")
        return reached, messages

    def _flood_plan(self, origin: PeerId) -> tuple[tuple[PeerId, ...], int]:
        """The replicas a flood from ``origin`` reaches, in the order it
        reaches them, and how many edges it traverses.

        Both depend only on the group graph and on which members are
        online, so one breadth-first pass per origin serves every flood
        until a member flips.
        """
        neighbors_of = self.online_adjacency()  # drops stale plans
        plan = self._flood_plans.get(origin)
        if plan is None:
            reached = [origin]
            edges = 0
            seen: set[PeerId] = {origin}
            frontier: deque[tuple[PeerId, PeerId | None]] = deque(
                [(origin, None)]
            )
            while frontier:
                peer, came_from = frontier.popleft()
                for neighbor in neighbors_of[peer]:
                    if neighbor == came_from:
                        continue
                    edges += 1
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    reached.append(neighbor)
                    frontier.append((neighbor, peer))
            plan = self._flood_plans[origin] = (tuple(reached), edges)
        return plan
