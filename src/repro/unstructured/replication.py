"""Random replication of content with factor ``repl``.

"We replicate keys with a certain factor at random peers" (Section 3.1).
The paper replicates index *and* content with the same factor so both
search paths have the same reliability; :class:`ContentReplicator` handles
the content side, placing each item at ``repl`` distinct random peers, and
can re-place replicas when articles are replaced (the news scenario
replaces each article every 24 h on average).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.errors import ParameterError
from repro.net.node import PeerId
from repro.unstructured.overlay import UnstructuredOverlay

__all__ = ["ReplicaPlacement", "ContentReplicator"]


@dataclass
class ReplicaPlacement:
    """Where the replicas of one item currently live."""

    key: Hashable
    holders: list[PeerId] = field(default_factory=list)

    def online_holders(self, overlay: UnstructuredOverlay) -> list[PeerId]:
        return [h for h in self.holders if overlay.population.is_online(h)]


class ContentReplicator:
    """Places and refreshes random replicas of content items.

    Parameters
    ----------
    overlay:
        The unstructured overlay whose peers store replicas.
    replication:
        Replication factor ``repl`` (Table 1: 50).
    rng:
        Randomness for placement decisions.
    """

    def __init__(
        self,
        overlay: UnstructuredOverlay,
        replication: int,
        rng: np.random.Generator,
    ) -> None:
        if replication < 1:
            raise ParameterError(f"replication must be >= 1, got {replication}")
        if replication > len(overlay.population):
            raise ParameterError(
                f"replication ({replication}) exceeds population size "
                f"({len(overlay.population)})"
            )
        self.overlay = overlay
        self.replication = replication
        self.rng = rng
        self._placements: dict[Hashable, ReplicaPlacement] = {}

    # ------------------------------------------------------------------
    def place(self, key: Hashable, value: object) -> ReplicaPlacement:
        """Replicate ``value`` under ``key`` at ``repl`` distinct random peers.

        Placement targets are drawn from the whole population (replicas on
        currently-offline peers become available when those peers return,
        exactly like real file-sharing replicas).
        """
        self.place_all({key: value})
        return self._placements[key]

    def place_all(self, items: Mapping[Hashable, object]) -> None:
        """Replicate every item, in order: one holder draw per key from
        the placement stream, that key's replicas written before the next
        key's holders are drawn."""
        peers = self.overlay.population.peers
        placements = self._placements
        for key, value in items.items():
            if key in placements:
                raise ParameterError(f"key {key!r} already placed; use refresh()")
            holders = self._draw_holders()
            for holder in holders:
                peers[holder].content[key] = value
            placements[key] = ReplicaPlacement(key, holders)

    def refresh(self, key: Hashable, value: object) -> ReplicaPlacement:
        """Replace an item's replicas (models article replacement)."""
        self.remove(key)
        return self.place(key, value)

    def remove(self, key: Hashable) -> None:
        """Drop all replicas of ``key`` (no-op when never placed)."""
        placement = self._placements.pop(key, None)
        if placement is None:
            return
        for holder in placement.holders:
            self.overlay.drop(holder, key)

    def _draw_holders(self) -> list[PeerId]:
        population_size = len(self.overlay.population)
        return self.rng.choice(
            population_size, size=self.replication, replace=False
        ).tolist()

    # ------------------------------------------------------------------
    def placement_of(self, key: Hashable) -> ReplicaPlacement:
        if key not in self._placements:
            raise ParameterError(f"key {key!r} was never placed")
        return self._placements[key]

    def placed_keys(self) -> list[Hashable]:
        return list(self._placements)

    def online_copies(self, key: Hashable) -> int:
        """Currently-reachable replica count for ``key``."""
        return len(self.placement_of(key).online_holders(self.overlay))

    def expected_availability(self, online_fraction: float) -> float:
        """P(at least one replica online) if peers are online i.i.d.

        With replication ``r`` and per-peer availability ``a`` this is
        ``1 - (1 - a)^r`` — the quantity [VaCh02]-style mechanisms tune
        ``repl`` against.
        """
        if not 0.0 <= online_fraction <= 1.0:
            raise ParameterError(
                f"online_fraction must be in [0, 1], got {online_fraction}"
            )
        return 1.0 - (1.0 - online_fraction) ** self.replication
