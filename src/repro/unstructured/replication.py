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

The masks a draw yields depend only on the generator's state and on the
population size, ``repl`` and the number of keys, and every strategy's
network of a figure starts its ``"placement"`` stream in the same state:
the draw is memoised per process on exactly those (:func:`_placement`,
``cache.placement.*``, the last :data:`PLACEMENT_MEMO` draws), and a hit
leaves the generator in the state the draw would have. A placement
larger than its share of :data:`PLACEMENT_MEMO_BYTES` is drawn in
place, so the memo's masks never outgrow that bound in all. A content
refresh is drawn in place: no other network draws it, and kept it would
evict the first placement. The masks are immutable ints; each network
still builds its own :class:`~repro.unstructured.overlay.ContentRecord`
from them.
"""

from __future__ import annotations

import json
from typing import Hashable, Mapping

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.sim.rng import choice_rows
from repro.unstructured.overlay import UnstructuredOverlay

__all__ = ["ContentReplicator", "PLACEMENT_MEMO", "PLACEMENT_MEMO_BYTES"]

#: Bytes of holder bitmap :func:`_holder_masks` packs per pass.
_MASK_PASS_BYTES = 1 << 20

#: Placements :func:`_placement` keeps: a figure's networks draw the same
#: first placement one after the other, and the churn calibration's
#: networks redraw their key and probe-key placements.
PLACEMENT_MEMO = 3

#: Bytes of holder masks (``numPeers / 8`` per key) the memo's
#: :data:`PLACEMENT_MEMO` placements may hold in all: a placement over
#: its share is drawn in place. A kept placement outlives the network
#: that drew it — through a content refresh, into the next figure — and
#: at Table 1 size one is ~100 MB.
PLACEMENT_MEMO_BYTES = 1 << 24


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


@obs.counted_cache("placement", maxsize=PLACEMENT_MEMO)
def _placement(
    state: str, pop: int, size: int, count: int
) -> tuple[tuple[int, ...], str]:
    """The holder masks of ``choice_rows(rng, pop, size, count)`` for a
    generator in ``state`` (its ``bit_generator.state`` as JSON), and the
    state the draw leaves it in (as JSON: what a memo hands out is
    immutable)."""
    start = json.loads(state)
    rng = np.random.Generator(getattr(np.random, start["bit_generator"])())
    rng.bit_generator.state = start
    masks = tuple(_holder_masks(choice_rows(rng, pop, size, count)))
    return masks, json.dumps(rng.bit_generator.state)


class ContentReplicator:
    """Places and refreshes random replicas of content items.

    Parameters
    ----------
    overlay:
        The unstructured overlay whose peers store replicas.
    replication:
        Replication factor ``repl`` (Table 1: 50).
    rng:
        Randomness for placement decisions: a generator whose
        ``bit_generator.state`` JSON can carry (the PCG64 streams of
        :class:`~repro.sim.rng.RandomStreams`), as the placement memo
        keys on it.
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
        rng = self.rng
        pop = len(self.overlay.population)
        if pop * fresh * PLACEMENT_MEMO > 8 * PLACEMENT_MEMO_BYTES:
            masks = self._draw(fresh)
        else:
            masks, end = _placement(
                json.dumps(rng.bit_generator.state), pop, self.replication, fresh
            )
            rng.bit_generator.state = json.loads(end)
        self._add(keys, masks, items)
        if fresh < len(keys):
            raise ParameterError(
                f"key {keys[fresh]!r} already placed; use refresh()"
            )

    def refresh_all(self, items: Mapping[Hashable, object]) -> None:
        """Replace every item's replicas (models article replacement):
        :meth:`remove` then :meth:`place` each, in order, in one placement
        draw, made in place (see the module docstring)."""
        for key in items:
            self.remove(key)
        keys = list(items)
        self._add(keys, self._draw(len(keys)), items)

    def _draw(self, count: int) -> list[int]:
        """The holder masks of the next ``count`` keys, drawn from
        :attr:`rng`."""
        return _holder_masks(choice_rows(
            self.rng, len(self.overlay.population), self.replication, count
        ))

    def _add(
        self, keys: list, masks: list[int], items: Mapping[Hashable, object]
    ) -> None:
        """Write each of ``keys`` (as many as ``masks`` has) into the
        overlay with its holder mask and its payload in ``items``."""
        add = self.overlay.add_replicas
        for key, mask in zip(keys, masks):
            add(key, mask, items[key])

    def remove(self, key: Hashable) -> None:
        """Drop all replicas of ``key`` (no-op when never placed)."""
        record = self.overlay.content.get(key)
        if record is not None:
            self.overlay.drop_replicas(key, record.mask)
