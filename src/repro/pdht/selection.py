"""The selection policy: which keys enter the index, and bookkeeping.

The policy itself is the paper's one-liner — *insert on broadcast-resolved
miss, evict after keyTtl quiet rounds* — but instrumenting it is what makes
the simulation comparable to the analytical model, so
:class:`SelectionStats` tracks every event the Section 5 discussion
enumerates as overhead sources:

I.   worthwhile keys that timed out before their next query
     (``reinsertions``);
II.  unworthy keys occupying index slots (visible via ``wasted_entries``
     snapshots);
III. the extra replica-flood cost (counted by the network layer);
IV.  index searches for never-indexed keys (``cold_misses``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SelectionStats", "SelectionPolicy"]


@dataclass
class SelectionStats:
    """Counters for the selection algorithm's behaviour."""

    queries: int = 0
    index_hits: int = 0
    index_misses: int = 0
    insertions: int = 0
    #: Misses for keys that had been indexed before (overhead source I).
    reinsertions: int = 0
    #: Misses for keys never indexed so far (overhead source IV).
    cold_misses: int = 0
    #: Broadcast searches that failed to find the key anywhere.
    unresolved: int = 0


class SelectionPolicy:
    """Tracks which keys have ever been indexed and classifies misses.

    The policy is deliberately *not* where the TTL lives (that is the
    per-peer :class:`~repro.pdht.ttl_cache.TtlKeyStore`); it is the
    network-level observer that implements the miss path decision — always
    broadcast-and-insert, per Section 5.1 — and attributes overhead.
    """

    def __init__(self) -> None:
        self.stats = SelectionStats()
        self._ever_indexed: set[str] = set()

    # ------------------------------------------------------------------
    def record_hit(self, key: str) -> None:
        self.stats.queries += 1
        self.stats.index_hits += 1

    def record_miss(self, key: str, resolved: bool) -> None:
        """A query missed the index; it was then broadcast.

        ``resolved`` — whether the broadcast found the key (only resolved
        keys are inserted; a key that does not exist in the network cannot
        be indexed).
        """
        self.stats.queries += 1
        self.stats.index_misses += 1
        if key in self._ever_indexed:
            self.stats.reinsertions += 1
        else:
            self.stats.cold_misses += 1
        if not resolved:
            self.stats.unresolved += 1

    def record_insertion(self, key: str) -> None:
        self.stats.insertions += 1
        self._ever_indexed.add(key)
