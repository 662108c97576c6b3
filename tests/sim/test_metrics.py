"""Tests for message accounting."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.sim.metrics import MessageCategory, MessageMetrics


class TestMessageMetrics:
    def test_count_accumulates(self):
        metrics = MessageMetrics()
        metrics.count(MessageCategory.INDEX_SEARCH, 3)
        metrics.count(MessageCategory.INDEX_SEARCH, 2)
        assert metrics.total(MessageCategory.INDEX_SEARCH) == 5

    def test_fractional_messages_allowed(self):
        metrics = MessageMetrics()
        metrics.count(MessageCategory.MAINTENANCE, 0.5)
        metrics.count(MessageCategory.MAINTENANCE, 0.25)
        assert metrics.total(MessageCategory.MAINTENANCE) == pytest.approx(0.75)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            MessageMetrics().count(MessageCategory.UPDATE, -1)

    def test_zero_count_does_not_touch_the_category(self):
        """Categories appear in the order of their first message, as if
        each operation counted one message at a time."""
        metrics = MessageMetrics()
        metrics.count(MessageCategory.INDEX_SEARCH, 0)
        metrics.count(MessageCategory.REPLICA_FLOOD, 2)
        metrics.count(MessageCategory.INDEX_SEARCH, 3)
        assert list(metrics.totals_by_category().items()) == [
            (MessageCategory.REPLICA_FLOOD, 2),
            (MessageCategory.INDEX_SEARCH, 3),
        ]

    def test_total_across_categories(self):
        metrics = MessageMetrics()
        metrics.count(MessageCategory.INDEX_SEARCH, 3)
        metrics.count(MessageCategory.UNSTRUCTURED_SEARCH, 7)
        assert metrics.total() == 10

    def test_totals_by_category_is_a_copy(self):
        metrics = MessageMetrics()
        metrics.count(MessageCategory.UPDATE, 1)
        snapshot = metrics.totals_by_category()
        snapshot[MessageCategory.UPDATE] = 99
        assert metrics.total(MessageCategory.UPDATE) == 1

    def test_unseen_category_total_is_zero(self):
        assert MessageMetrics().total(MessageCategory.REPLICA_FLOOD) == 0.0

    def test_reset_clears_everything(self):
        metrics = MessageMetrics()
        metrics.count(MessageCategory.UPDATE, 5)
        metrics.reset()
        assert metrics.total() == 0
        assert metrics.totals_by_category() == {}
