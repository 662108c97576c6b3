"""Message taxonomy for the simulated overlays.

Messages are not delivered through a transport model — the paper counts
messages, it does not model latency — but giving each hop an explicit
:class:`Message` record keeps the accounting auditable and lets tests
assert on exactly which traffic a scenario generated.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.net.node import PeerId
from repro.sim.metrics import MessageCategory, MessageMetrics

__all__ = ["MessageKind", "Message", "MessageLog"]

_message_counter = itertools.count()


class MessageKind(enum.Enum):
    """Wire-level message kinds, mapped onto accounting categories."""

    QUERY_WALK = ("query_walk", MessageCategory.UNSTRUCTURED_SEARCH)
    DHT_LOOKUP = ("dht_lookup", MessageCategory.INDEX_SEARCH)
    REPLICA_FLOOD = ("replica_flood", MessageCategory.REPLICA_FLOOD)
    ROUTING_PROBE = ("routing_probe", MessageCategory.MAINTENANCE)
    JOIN = ("join", MessageCategory.MEMBERSHIP)
    LEAVE = ("leave", MessageCategory.MEMBERSHIP)

    def __init__(self, wire_name: str, category: MessageCategory) -> None:
        self.wire_name = wire_name
        self.category = category


@dataclass(frozen=True)
class Message:
    """One sent message (one hop, one cost unit)."""

    kind: MessageKind
    sender: PeerId
    receiver: PeerId
    payload: object = None
    msg_id: int = field(default_factory=lambda: next(_message_counter))


class MessageLog:
    """Optional per-message audit log feeding a :class:`MessageMetrics`.

    Recording full :class:`Message` objects is useful in tests but costs
    memory in long runs, so logging can be disabled while counting stays on.
    """

    def __init__(self, metrics: MessageMetrics, keep_messages: bool = False) -> None:
        self.metrics = metrics
        self.keep_messages = keep_messages
        self.messages: list[Message] = []

    def send(
        self,
        kind: MessageKind,
        sender: PeerId,
        receiver: PeerId,
        payload: object = None,
    ) -> Message | None:
        """Account for one message; return the record if logging is on."""
        self.metrics.count(kind.category)
        if not self.keep_messages:
            return None
        message = Message(kind=kind, sender=sender, receiver=receiver, payload=payload)
        self.messages.append(message)
        return message

    def send_all(
        self,
        kind: MessageKind,
        count: int,
        hops: Iterable[tuple[PeerId, PeerId]] = (),
        payload: object = None,
    ) -> None:
        """Account for ``count`` messages of one kind with a single count.

        ``hops`` — the ``(sender, receiver)`` of each, in sending order —
        is read only when the log keeps messages, so a hot loop need not
        collect it otherwise. Like the :meth:`send` calls it stands for,
        ``count == 0`` does not touch the category.
        """
        if not count:
            return
        self.metrics.count(kind.category, count)
        if self.keep_messages:
            self.messages.extend(
                Message(kind, sender, receiver, payload)
                for sender, receiver in hops
            )
