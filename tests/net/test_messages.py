"""Tests for the message taxonomy and logging."""

from __future__ import annotations

from repro.net.messages import Message, MessageKind, MessageLog
from repro.sim.metrics import MessageCategory, MessageMetrics


class TestMessageKind:
    def test_every_kind_has_category(self):
        for kind in MessageKind:
            assert isinstance(kind.category, MessageCategory)

    def test_search_kinds_map_to_search_categories(self):
        assert MessageKind.QUERY_WALK.category is MessageCategory.UNSTRUCTURED_SEARCH
        assert MessageKind.DHT_LOOKUP.category is MessageCategory.INDEX_SEARCH
        assert MessageKind.REPLICA_FLOOD.category is MessageCategory.REPLICA_FLOOD
        assert MessageKind.ROUTING_PROBE.category is MessageCategory.MAINTENANCE


class TestMessageLog:
    def test_send_counts_in_metrics(self):
        metrics = MessageMetrics()
        log = MessageLog(metrics)
        log.send(MessageKind.DHT_LOOKUP, 1, 2)
        assert metrics.total(MessageCategory.INDEX_SEARCH) == 1

    def test_send_without_keep_returns_none(self):
        log = MessageLog(MessageMetrics(), keep_messages=False)
        assert log.send(MessageKind.DHT_LOOKUP, 1, 2) is None
        assert log.messages == []

    def test_send_with_keep_records_message(self):
        log = MessageLog(MessageMetrics(), keep_messages=True)
        message = log.send(MessageKind.QUERY_WALK, 3, 4, payload="k")
        assert isinstance(message, Message)
        assert message.sender == 3
        assert message.receiver == 4
        assert message.payload == "k"

    def test_message_ids_unique(self):
        log = MessageLog(MessageMetrics(), keep_messages=True)
        a = log.send(MessageKind.QUERY_WALK, 0, 1)
        b = log.send(MessageKind.QUERY_WALK, 1, 2)
        assert a.msg_id != b.msg_id

    def test_count_of(self):
        log = MessageLog(MessageMetrics(), keep_messages=True)
        log.send(MessageKind.QUERY_WALK, 0, 1)
        log.send(MessageKind.QUERY_WALK, 1, 2)
        log.send(MessageKind.DHT_LOOKUP, 2, 3)
        kinds = [m.kind for m in log.messages]
        assert kinds.count(MessageKind.QUERY_WALK) == 2
        assert kinds.count(MessageKind.DHT_LOOKUP) == 1

