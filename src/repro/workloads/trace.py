"""Query-trace recording and replay.

Experiments become comparable across strategies only when every strategy
sees the *same* query sequence. :class:`QueryTrace` captures a stream's
emitted queries as :class:`QueryEvent` records, serialises to/from JSON
(one document) or JSONL (one header line plus one event per line —
appendable, streamable, and the format
:class:`repro.workloads.TraceReplay` documents), and replays
deterministically — the standard trace-driven-simulation workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.fastsim.workload import BatchWorkload

__all__ = ["QueryEvent", "QueryTrace", "record_trace"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class QueryEvent:
    """One recorded query: when, and for which key rank.

    ``rank`` is the *popularity* rank at emission time; ``key_index`` is
    the stable identity of the queried key (index into the key universe),
    which differs from ``rank`` once the workload shifts.
    """

    time: float
    rank: int
    key_index: int


@dataclass
class QueryTrace:
    """An ordered list of query events with serialisation."""

    events: list[QueryEvent] = field(default_factory=list)
    n_keys: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.n_keys < 0:
            raise ParameterError(f"n_keys must be >= 0, got {self.n_keys}")
        # Replay binary-searches the timestamps (`BatchTraceWorkload`),
        # so the ordering invariant `append` enforces must also hold for
        # an events list passed straight to the constructor.
        for previous, current in zip(self.events, self.events[1:]):
            if current.time < previous.time:
                raise ParameterError(
                    f"trace must be time-ordered ({current.time} < "
                    f"{previous.time})"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[QueryEvent]:
        return iter(self.events)

    def append(self, event: QueryEvent) -> None:
        if self.events and event.time < self.events[-1].time:
            raise ParameterError(
                f"trace must be time-ordered ({event.time} < "
                f"{self.events[-1].time})"
            )
        if self.n_keys and not 0 <= event.key_index < self.n_keys:
            raise ParameterError(
                f"key_index {event.key_index} outside universe of {self.n_keys}"
            )
        self.events.append(event)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].time - self.events[0].time

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "version": _FORMAT_VERSION,
            "n_keys": self.n_keys,
            "description": self.description,
            "events": [
                [event.time, event.rank, event.key_index] for event in self.events
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "QueryTrace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"not a valid trace: {exc}") from exc
        if payload.get("version") != _FORMAT_VERSION:
            raise ParameterError(
                f"unsupported trace version {payload.get('version')!r}"
            )
        trace = cls(
            n_keys=int(payload.get("n_keys", 0)),
            description=str(payload.get("description", "")),
        )
        for time, rank, key_index in payload["events"]:
            trace.append(
                QueryEvent(time=float(time), rank=int(rank), key_index=int(key_index))
            )
        return trace

    def to_jsonl(self) -> str:
        """JSONL form: a header object line, then one ``[time, rank,
        key_index]`` line per event (appendable and streamable)."""
        lines = [
            json.dumps(
                {
                    "version": _FORMAT_VERSION,
                    "n_keys": self.n_keys,
                    "description": self.description,
                }
            )
        ]
        lines.extend(
            json.dumps([event.time, event.rank, event.key_index])
            for event in self.events
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "QueryTrace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParameterError("not a valid trace: empty JSONL document")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ParameterError(f"not a valid trace: {exc}") from exc
        if not isinstance(header, dict):
            raise ParameterError(
                "not a valid trace: JSONL must start with a header object"
            )
        if header.get("version") != _FORMAT_VERSION:
            raise ParameterError(
                f"unsupported trace version {header.get('version')!r}"
            )
        trace = cls(
            n_keys=int(header.get("n_keys", 0)),
            description=str(header.get("description", "")),
        )
        for line in lines[1:]:
            try:
                time, rank, key_index = json.loads(line)
            except (json.JSONDecodeError, ValueError) as exc:
                raise ParameterError(f"not a valid trace: {exc}") from exc
            trace.append(
                QueryEvent(
                    time=float(time), rank=int(rank), key_index=int(key_index)
                )
            )
        return trace

    def save(self, path: str | Path) -> None:
        """Write the trace; a ``.jsonl`` suffix selects the JSONL form."""
        path = Path(path)
        text = self.to_jsonl() if path.suffix == ".jsonl" else self.to_json()
        path.write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "QueryTrace":
        """Read a trace saved by :meth:`save` (JSON or JSONL)."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"cannot read trace {path}: {exc}") from exc
        if path.suffix == ".jsonl":
            return cls.from_jsonl(text)
        return cls.from_json(text)


def record_trace(
    workload: BatchWorkload,
    duration: float,
    queries_per_round: int,
    description: str = "",
) -> QueryTrace:
    """Drive a stream for ``duration`` rounds and capture what it draws."""
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")
    if queries_per_round < 0:
        raise ParameterError(
            f"queries_per_round must be >= 0, got {queries_per_round}"
        )
    trace = QueryTrace(n_keys=workload.n_keys, description=description)
    for round_index in range(int(duration)):
        now = float(round_index)
        for rank, key_index in workload.draw(now, queries_per_round):
            trace.append(QueryEvent(now, rank, key_index))
    return trace
