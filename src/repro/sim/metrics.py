"""Message accounting — the paper's cost unit.

Every network operation in the simulator reports the messages it sent to a
shared :class:`MessageMetrics` instance, broken down by
:class:`MessageCategory`. The categories mirror the terms of the paper's
cost equations so simulated costs can be compared term-by-term with the
analytical model (e.g. simulated ``MAINTENANCE`` traffic vs ``keys * cRtn``).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ParameterError

__all__ = ["MessageCategory", "MessageMetrics", "TimeSeries"]


class MessageCategory(enum.Enum):
    """Taxonomy of simulated message traffic, aligned with Eq. 6-17 terms."""

    #: Broadcast / random-walk search in the unstructured overlay (cSUnstr).
    UNSTRUCTURED_SEARCH = "unstructured_search"
    #: DHT lookup hops (cSIndx).
    INDEX_SEARCH = "index_search"
    #: Flooding the replica subnetwork during a lookup (the repl*dup2 part
    #: of cSIndx2).
    REPLICA_FLOOD = "replica_flood"
    #: Routing-table probe traffic (cRtn).
    MAINTENANCE = "maintenance"
    #: Key insert / update dissemination (cUpd and selection re-inserts).
    UPDATE = "update"
    #: Overlay joins, leaves, and neighbour discovery.
    MEMBERSHIP = "membership"

    # Members are singletons compared by identity, so hash them that way,
    # in C: ``Enum.__hash__`` is a Python-level ``hash(self._name_)`` and
    # every counted message is four dict accesses keyed by a category.
    __hash__ = object.__hash__


@dataclass
class TimeSeries:
    """Append-only (time, value) series for per-round reporting."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ParameterError(
                f"time series must be appended in order "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> tuple[float, float]:
        if not self.times:
            raise ParameterError("time series is empty")
        return self.times[-1], self.values[-1]

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)


class MessageMetrics:
    """Counts messages by category, with optional windowed rate snapshots."""

    def __init__(self) -> None:
        self._totals: dict[MessageCategory, float] = defaultdict(float)
        self._window: dict[MessageCategory, float] = defaultdict(float)
        self._series: dict[MessageCategory, TimeSeries] = defaultdict(TimeSeries)
        self._window_start = 0.0

    # ------------------------------------------------------------------
    def count(self, category: MessageCategory, messages: float = 1.0) -> None:
        """Record ``messages`` sent messages in ``category``."""
        if messages < 0:
            raise ParameterError(f"messages must be >= 0, got {messages}")
        self._totals[category] += messages
        self._window[category] += messages

    def count_each(
        self, category: MessageCategory, amounts: Sequence[float]
    ) -> None:
        """``count(category, a)`` for every ``a`` of ``amounts``, in order.

        The additions happen one amount at a time, so the totals are the
        ones the loop of :meth:`count` calls leaves, to the last bit;
        like that loop, an empty ``amounts`` does not touch the category.
        """
        if not amounts:
            return
        if min(amounts) < 0:
            raise ParameterError(f"messages must be >= 0, got {min(amounts)}")
        total = self._totals[category]
        window = self._window[category]
        for messages in amounts:
            total += messages
            window += messages
        self._totals[category] = total
        self._window[category] = window

    def total(self, category: MessageCategory | None = None) -> float:
        """Total messages in one category, or across all categories."""
        if category is not None:
            return self._totals[category]
        return sum(self._totals.values())

    def totals_by_category(self) -> dict[MessageCategory, float]:
        """A copy of the per-category totals."""
        return dict(self._totals)

    # ------------------------------------------------------------------
    # Windowed rates
    # ------------------------------------------------------------------
    def snapshot_window(self, now: float) -> dict[MessageCategory, float]:
        """Close the current window, record per-second rates, start a new one.

        Returns the per-category *rates* (msg/s) over the closed window.
        """
        duration = now - self._window_start
        if duration <= 0:
            raise ParameterError(
                f"window must have positive duration (start={self._window_start}, "
                f"now={now})"
            )
        rates: dict[MessageCategory, float] = {}
        for category in MessageCategory:
            rate = self._window[category] / duration
            rates[category] = rate
            self._series[category].append(now, rate)
        self._window = defaultdict(float)
        self._window_start = now
        return rates

    def series(self, category: MessageCategory) -> TimeSeries:
        """The recorded per-window rate series for ``category``."""
        return self._series[category]

    # ------------------------------------------------------------------
    def rate(self, duration: float, categories: Iterable[MessageCategory] | None = None) -> float:
        """Average msg/s over ``duration`` for given (default: all) categories."""
        if duration <= 0:
            raise ParameterError(f"duration must be > 0, got {duration}")
        if categories is None:
            return self.total() / duration
        return sum(self._totals[c] for c in categories) / duration

    def reset(self, now: float = 0.0) -> None:
        """Clear all counters and series (e.g. after a warm-up phase).

        ``now`` becomes the start of the next window so post-warm-up rates
        are measured from the reset instant.
        """
        self._totals.clear()
        self._window.clear()
        self._series.clear()
        self._window_start = now
