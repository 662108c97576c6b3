"""Flight recorder: stream structured telemetry events to a sink.

:mod:`repro.obs.collector` aggregates — a snapshot says *how much* time
each span path accumulated, never *when*. The flight recorder is the
live half: while a sink is installed (:func:`set_sink` /
``REPRO_OBS_EVENTS=path``), every event the collector folds (span exit,
counter increment, gauge sample, hot-loop duration report,
worker-snapshot merge), every span entry and every progress heartbeat is
also emitted as one structured event the moment it happens. A long sweep
becomes observable while it runs, a killed run keeps everything it
recorded up to the signal, and folding the stream again *reconstructs*
the end-of-run snapshot exactly (:func:`repro.obs.export.replay`); it
also renders a Chrome trace with per-worker lanes
(:func:`repro.obs.export.chrome_trace`).

Design decisions:

* **Off by default, twice over.** No sink is installed unless asked, so
  the recorder costs the collector hooks a single ``is not None`` check
  — and those hooks only run when collection itself is enabled, so the
  telemetry-off path is untouched. The enabled-and-recording path is
  held to a wall-clock ceiling over plain telemetry by the
  ``obs_overhead.recorder`` row of ``benchmarks/gates.py``.
* **Events are plain dicts.** Every event carries ``type``, ``t`` (a
  :func:`repro.obs.clock.perf_counter` stamp — monotonic, shared across
  processes on Linux) and ``pid``; the rest is per-type payload. JSON in,
  JSON out: what :class:`JsonlSink` writes, :func:`read_events` returns.
* **Crash-safe JSONL.** :class:`JsonlSink` appends one line per event
  and flushes it immediately, so a SIGINT can corrupt at most the line
  being written; :func:`read_events` recovers by dropping a truncated
  final line (and only the final line — mid-file corruption still
  raises).
* **Workers ship events by value.** Pool workers record into a
  :class:`TraceSink` and return the events a trace renders with their
  result; the parent re-emits them via :func:`emit_remote` with
  ``remote: True`` so replay skips them (their aggregate contribution
  arrives through the duplicate-safe snapshot merge instead) while trace
  export keeps them as per-worker lanes.

Event types: ``span_start``, ``span_end``, ``duration``, ``counter``,
``gauge``, ``merge``, ``progress``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Protocol

from repro.obs.clock import perf_counter

__all__ = [
    "EventSink",
    "RingBufferSink",
    "TraceSink",
    "JsonlSink",
    "TeeSink",
    "recording",
    "set_sink",
    "recorded",
    "emit_event",
    "emit_remote",
    "read_events",
]


class EventSink(Protocol):
    """Anything that accepts flight-recorder events."""

    def emit(self, event: dict[str, Any]) -> None: ...


class RingBufferSink:
    """Keep the last ``capacity`` events in memory: a bounded buffer, so
    a runaway event source degrades to losing the oldest events instead
    of exhausting memory (what :func:`recorded` installs by default)."""

    def __init__(self, capacity: Optional[int] = 1 << 16) -> None:
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)

    def emit(self, event: dict[str, Any]) -> None:
        self._events.append(event)

    def events(self) -> list[dict[str, Any]]:
        """A copy of the buffered events, oldest first."""
        return list(self._events)


class TraceSink(RingBufferSink):
    """Keep every event a trace renders — ``span_end``, ``duration`` and
    ``progress`` (:func:`repro.obs.export.chrome_trace`) — without bound,
    and no other: what ``--trace-out`` and each pool worker record, so a
    long run keeps every slice while per-query counters are dropped (a
    worker's counters and gauges reach the parent in its snapshot)."""

    def __init__(self) -> None:
        super().__init__(capacity=None)

    def emit(self, event: dict[str, Any]) -> None:
        if event["type"] in ("span_end", "duration", "progress"):
            self._events.append(event)


class JsonlSink:
    """Append events to a JSONL file, one flushed line per event.

    The per-event flush is the crash-safety contract: after a SIGINT the
    file holds every event emitted before the signal, with at most the
    final line truncated — which :func:`read_events` drops on read.
    The flush is paid per event. Spans, phases and heartbeats come per
    phase or unit, but the event engine reports ``engine.run`` and
    ``engine.events`` once per round and the broadcast walk counts
    ``walk.searches`` and ``walk.hops`` once per search: ``sim --engine
    event --duration 150`` streams 14,575 events, 12,387 of them walk
    counters.
    """

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event: dict[str, Any]) -> None:
        self._handle.write(
            json.dumps(event, separators=(",", ":")) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class TeeSink:
    """Fan every event out to several sinks (ring + file + renderer)."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = sinks

    def emit(self, event: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)


# ---------------------------------------------------------------------
# Module state: the installed sink, plus the pid stamped on every event.
# The pid is captured at install time, not import time, so a pool worker
# that installs its own sink after fork() stamps its own pid.
# ---------------------------------------------------------------------
_sink: Optional[EventSink] = None
_sink_pid: int = 0


def recording() -> bool:
    """Whether a flight-recorder sink is currently installed."""
    return _sink is not None


def set_sink(sink: Optional[EventSink]) -> Optional[EventSink]:
    """Install ``sink`` (``None`` stops recording); returns the previous
    sink (not closed — the caller that opened it owns it)."""
    global _sink, _sink_pid
    previous = _sink
    _sink = sink
    _sink_pid = os.getpid() if sink is not None else 0
    return previous


@contextmanager
def recorded(
    sink: Optional[EventSink] = None,
) -> Iterator[EventSink]:
    """Record events for the ``with`` body (default: a fresh ring).

    The previous sink is restored on exit; a sink passed in is *not*
    closed (the caller owns it), the default ring needs no closing.
    """
    active = sink if sink is not None else RingBufferSink()
    previous = set_sink(active)
    try:
        yield active
    finally:
        set_sink(previous)


def emit_event(type: str, **fields: Any) -> None:
    """Emit one event to the installed sink (no-op without one).

    The recorder stamps ``type``/``t``/``pid``; callers provide the
    per-type payload (the collector passes its folded event as
    ``emit_event(**event)``). Collector hooks pre-check :data:`_sink`
    inline and only pay this call while recording.
    """
    sink = _sink
    if sink is None:
        return
    event: dict[str, Any] = {
        "type": type,
        "t": perf_counter(),
        "pid": _sink_pid,
    }
    event.update(fields)
    sink.emit(event)


def emit_remote(events: Optional[list[dict[str, Any]]]) -> None:
    """Re-emit a worker's shipped events, marked ``remote: True``.

    Remote events exist for the trace (per-worker lanes) and the live
    stream; :func:`repro.obs.export.replay` skips them because the same
    measurements arrive in aggregate through the worker's snapshot merge
    — emitting them unmarked would double-count on replay.
    """
    sink = _sink
    if sink is None or not events:
        return
    for event in events:
        sink.emit({**event, "remote": True})


def read_events(path: os.PathLike | str) -> list[dict[str, Any]]:
    """Load a :class:`JsonlSink` file, recovering from a truncated tail.

    A process killed mid-write leaves at most one partial final line;
    that line is silently dropped. A malformed line anywhere *else*
    means the file was not produced by the flight recorder (or was
    corrupted beyond a kill), so it raises ``ValueError`` rather than
    silently skipping data.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    populated = [i for i, line in enumerate(lines) if line.strip()]
    events: list[dict[str, Any]] = []
    for index in populated:
        try:
            events.append(json.loads(lines[index]))
        except json.JSONDecodeError:
            if index == populated[-1]:
                break  # truncated final line: the interrupted write
            raise ValueError(
                f"{path}: malformed event on line {index + 1} "
                "(not a truncated tail)"
            ) from None
    return events


# ``REPRO_OBS_EVENTS=path`` installs a JSONL sink at import time, the
# flight-recorder counterpart of ``REPRO_OBS=1`` (which it composes
# with: span/counter/gauge events flow only while collection is
# enabled; progress events need only the sink).
_env_path = os.environ.get("REPRO_OBS_EVENTS", "").strip()
if _env_path:
    set_sink(JsonlSink(_env_path))
del _env_path
