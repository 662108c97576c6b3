"""Message accounting — the paper's cost unit.

Every network operation in the simulator reports the messages it sent to a
shared :class:`MessageMetrics` instance, broken down by
:class:`MessageCategory`. The categories mirror the terms of the paper's
cost equations so simulated costs can be compared term-by-term with the
analytical model (e.g. simulated ``MAINTENANCE`` traffic vs ``keys * cRtn``).

Callers count an operation's messages in one call, not one call per
message, and a batch of amounts (a maintenance sweep, one per member) in
one :meth:`MessageMetrics.count_each`, which adds them left to right with
``functools.reduce`` — the float additions a loop of :meth:`count` calls
makes, in its order.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections import defaultdict
from typing import Sequence

from repro.errors import ParameterError

__all__ = ["MessageCategory", "MessageMetrics"]


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


class MessageMetrics:
    """Counts messages by category: one running total per category.

    Rates are the totals over the simulated time the caller ran, taken
    once at the end of a run (``StrategyReport.messages_per_second``).
    """

    def __init__(self) -> None:
        self._totals: dict[MessageCategory, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def count(self, category: MessageCategory, messages: float = 1.0) -> None:
        """Record ``messages`` sent messages in ``category``.

        Like a loop that counts one message at a time, ``messages == 0``
        does not touch the category (the insertion order of
        :meth:`totals_by_category` is the order of first messages).
        """
        if messages <= 0:
            if messages < 0:
                raise ParameterError(f"messages must be >= 0, got {messages}")
            return
        self._totals[category] += messages

    def count_each(
        self, category: MessageCategory, amounts: Sequence[float]
    ) -> None:
        """``count(category, a)`` for every ``a`` of ``amounts``, in order.

        The additions happen one amount at a time, in order
        (``functools.reduce(operator.add, ...)`` from the category's
        total), so the totals are the ones the loop of :meth:`count` calls
        leaves, to the last bit; like that loop, an empty ``amounts`` does
        not touch the category. A caller that charges the same amounts
        every round (a maintenance sweep) passes one tuple it keeps.
        """
        if not amounts:
            return
        if min(amounts) < 0:
            raise ParameterError(f"messages must be >= 0, got {min(amounts)}")
        # reduce adds left to right, as the loop does, without a Python
        # statement per amount.
        self._totals[category] = functools.reduce(
            operator.add, amounts, self._totals[category]
        )

    def total(self, category: MessageCategory | None = None) -> float:
        """Total messages in one category, or across all categories."""
        if category is not None:
            return self._totals[category]
        return sum(self._totals.values())

    def totals_by_category(self) -> dict[MessageCategory, float]:
        """A copy of the per-category totals."""
        return dict(self._totals)

    def reset(self) -> None:
        """Clear all counters (e.g. after a warm-up phase)."""
        self._totals.clear()
