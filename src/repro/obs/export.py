"""Turn recorded event streams back into snapshots and traces.

Two consumers of the flight-recorder stream
(:mod:`repro.obs.events`):

* :func:`replay` — reconstruct an end-of-run
  :class:`~repro.obs.collector.Collector` snapshot from the events
  alone, by the one fold the live run used
  (:meth:`~repro.obs.collector.Collector.fold`). So
  ``profile_data(replay(events)) == profile_data(snapshot)`` for
  sequential *and* pooled runs (``tests/obs/test_replay.py``), and a
  killed run's JSONL file is a full profile, not just a log.
* :func:`chrome_trace` — Chrome trace-event JSON (the Trace Event
  Format), loadable in Perfetto / ``chrome://tracing``. Spans and
  hot-loop durations become complete ("X") slices; each process gets
  its own pid lane with a ``process_name`` metadata record, so a jobs=4
  sweep renders as one main lane plus four worker lanes. Timestamps
  come from the events' shared monotonic clock, so cross-process slices
  align.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.collector import Collector

__all__ = ["replay", "chrome_trace"]


def replay(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Rebuild a collector snapshot from a recorded event stream.

    Folds every event into a fresh
    :class:`~repro.obs.collector.Collector` with the same
    :meth:`~repro.obs.collector.Collector.fold` the live run used — a
    ``merge`` event goes through the duplicate-safe merge, so a stream
    that recorded a snapshot twice replays without double-counting.
    Events marked ``remote`` (worker events re-emitted by the parent)
    are skipped: their aggregate contribution arrives via the worker's
    ``merge`` event, exactly as it did live. Returns a snapshot-shaped
    dict (pass it to :func:`~repro.obs.profile.profile_data` /
    ``profile_text``).
    """
    collector = Collector()
    for event in events:
        if not event.get("remote"):
            collector.fold(event)
    return collector.snapshot()


def chrome_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Render an event stream as Chrome trace-event JSON.

    Every process in the stream becomes a pid lane named via a
    ``process_name`` metadata ("M") record — ``main`` for the recording
    process (the first event's pid; the parent installs its sink before
    any worker runs), ``worker-<pid>`` for shipped remote events. Spans
    and durations become complete ("X") slices: the event timestamp is
    the *end* of the measured interval, so ``ts = t - seconds``,
    rebased to the earliest event and scaled to microseconds. Hot-loop
    ``duration`` events render as one slice covering their accumulated
    time. ``progress`` events become instant ("i") marks, which makes
    heartbeats visible as ticks along a worker's lane.
    """
    trace_events: list[dict[str, Any]] = []
    if not events:
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    t0 = min(event["t"] for event in events)
    root_pid = events[0]["pid"]
    pids_seen: dict[int, None] = {}
    for event in events:
        pid = event["pid"]
        pids_seen.setdefault(pid, None)
        kind = event.get("type")
        if kind in ("span_end", "duration"):
            path = event["path"]
            seconds = event["seconds"]
            slice_event: dict[str, Any] = {
                "name": path,
                "cat": path.split("/", 1)[0].split(".", 1)[0],
                "ph": "X",
                "ts": (event["t"] - seconds - t0) * 1e6,
                "dur": seconds * 1e6,
                "pid": pid,
                "tid": pid,
            }
            args: dict[str, Any] = {}
            if kind == "duration":
                args["n"] = event.get("n", 1)
            elif event.get("attrs"):
                args.update(event["attrs"])
            if args:
                slice_event["args"] = args
            trace_events.append(slice_event)
        elif kind == "progress":
            instant: dict[str, Any] = {
                "name": event["name"],
                "cat": event["name"].split(".", 1)[0],
                "ph": "i",
                "s": "p",
                "ts": (event["t"] - t0) * 1e6,
                "pid": pid,
                "tid": pid,
                "args": {
                    "done": event["done"],
                    "total": event.get("total"),
                },
            }
            trace_events.append(instant)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {
                "name": "main" if pid == root_pid else f"worker-{pid}"
            },
        }
        for pid in pids_seen
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }
