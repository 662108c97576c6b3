"""Random replication of content with factor ``repl``.

"We replicate keys with a certain factor at random peers" (Section 3.1).
The paper replicates index *and* content with the same factor so both
search paths have the same reliability; :class:`ContentReplicator` handles
the content side, placing each item at ``repl`` distinct random peers, and
can re-place replicas when articles are replaced (the news scenario
replaces each article every 24 h on average).

An item's holders are what one ``rng.choice(numPeers, repl,
replace=False)`` per key, in key order, would draw; a batch of keys takes
them in one :func:`repro.sim.rng.choice_rows` call, and writes each key
into the overlay as one holder bitmask
(:meth:`UnstructuredOverlay.add_replicas`).
``tests/unstructured/test_place_all_equivalence.py`` holds this to the
per-key, per-holder loop it replaced.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.errors import ParameterError
from repro.sim.rng import choice_rows
from repro.unstructured.overlay import UnstructuredOverlay

__all__ = ["ContentReplicator"]

#: Bytes of holder bitmap :func:`_holder_masks` packs per pass.
_MASK_PASS_BYTES = 1 << 20


def _holder_masks(rows: np.ndarray) -> list[int]:
    """Each row of distinct peer ids as one int, bit ``p`` set for peer
    ``p``."""
    width = (int(rows.max(initial=0)) + 8) // 8
    masks: list[int] = []
    per_pass = max(1, _MASK_PASS_BYTES // width)
    for start in range(0, len(rows), per_pass):
        chunk = rows[start:start + per_pass]
        packed = np.zeros(len(chunk) * width, dtype=np.uint8)
        at = np.arange(len(chunk))[:, None] * width + (chunk >> 3)
        # A row's ids are distinct, so adding their bits ORs them.
        bits = (1 << (chunk & 7)).astype(np.uint8)
        np.add.at(packed, at.ravel(), bits.ravel())
        data = packed.tobytes()
        masks += [
            int.from_bytes(data[k:k + width], "little")
            for k in range(0, len(data), width)
        ]
    return masks


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

    # ------------------------------------------------------------------
    def place(self, key: Hashable, value: object) -> None:
        """Replicate ``value`` under ``key`` at ``repl`` distinct random peers.

        Placement targets are drawn from the whole population (replicas on
        currently-offline peers become available when those peers return,
        exactly like real file-sharing replicas).
        """
        self.place_all({key: value})

    def place_all(self, items: Mapping[Hashable, object]) -> None:
        """Replicate every item, in order, as a loop of :meth:`place`
        would: the keys before the first already-placed one are placed,
        and that one raises."""
        placed = self.overlay.content
        keys = list(items)
        fresh = next(
            (i for i, key in enumerate(keys) if key in placed), len(keys)
        )
        rows = choice_rows(
            self.rng, len(self.overlay.population), self.replication, fresh
        )
        add = self.overlay.add_replicas
        for key, mask in zip(keys, _holder_masks(rows)):
            add(key, mask, items[key])
        if fresh < len(keys):
            raise ParameterError(
                f"key {keys[fresh]!r} already placed; use refresh()"
            )

    def refresh_all(self, items: Mapping[Hashable, object]) -> None:
        """Replace every item's replicas (models article replacement):
        :meth:`remove` then :meth:`place` each, in order, in one placement
        draw."""
        for key in items:
            self.remove(key)
        self.place_all(items)

    def remove(self, key: Hashable) -> None:
        """Drop all replicas of ``key`` (no-op when never placed)."""
        record = self.overlay.content.get(key)
        if record is not None:
            self.overlay.drop_replicas(key, record.mask)
