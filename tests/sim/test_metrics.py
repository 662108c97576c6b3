"""Tests for message accounting."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

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


# ----------------------------------------------------------------------
# count_each: one reduce against the loop it replaced
# ----------------------------------------------------------------------
def reference_count_each(metrics, category, amounts):
    """``MessageMetrics.count_each`` as it was: a Python loop of
    additions, one amount at a time, from the category's total."""
    if not amounts:
        return
    if min(amounts) < 0:
        raise ParameterError(f"messages must be >= 0, got {min(amounts)}")
    total = metrics._totals[category]
    for messages in amounts:
        total += messages
    metrics._totals[category] = total


AMOUNTS = st.lists(
    st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        # subnormals, and huge values that swallow what follows them
        st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
        st.sampled_from([0.0, 5e-324, 1e308, 1.7976931348623157e308, 1.0,
                         0.1, 0.2, 0.3, 1 / 14, 3 / 14]),
        st.integers(0, 2**60),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.sampled_from(list(MessageCategory)), AMOUNTS),
        max_size=6,
    ),
)
# (0.1 + 0.2) + 0.3 is not 0.1 + (0.2 + 0.3): added one at a time.
@example(batches=[(MessageCategory.MAINTENANCE, [0.1, 0.2, 0.3])])
@example(batches=[(MessageCategory.MAINTENANCE, [0.1]),
                  (MessageCategory.MAINTENANCE, [0.2, 0.3])])
def test_count_each_equals_the_loop_bit_for_bit(batches):
    new, old = MessageMetrics(), MessageMetrics()
    for category, amounts in batches:
        new.count_each(category, tuple(amounts))
        reference_count_each(old, category, amounts)
        # Bit for bit (hex), and in order: an empty batch creates no
        # category.
        assert [
            (key, value.hex()) for key, value in new.totals_by_category().items()
        ] == [
            (key, value.hex()) for key, value in old.totals_by_category().items()
        ]


def test_count_each_rejects_a_negative_amount_and_counts_nothing():
    metrics = MessageMetrics()
    with pytest.raises(ParameterError):
        metrics.count_each(MessageCategory.MAINTENANCE, (1.0, -0.5))
    assert metrics.totals_by_category() == {}
