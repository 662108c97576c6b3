"""In-process telemetry collection: spans, counters, and gauges.

Design notes
------------
* **Off by default.** The module-level enabled flag gates every recording
  entry point; when disabled, :func:`span` returns a shared no-op context
  manager and :func:`count` / :func:`gauge_max` / :func:`add_duration`
  return immediately. The hot paths (kernel round loop, event-engine
  dispatch) additionally check :func:`enabled` once per call and keep
  their measurements in local variables, so the disabled cost is a single
  branch.
* **One transition.** Every recording is an event that
  :meth:`Collector.fold` applies, and :func:`repro.obs.export.replay`
  folds a recorded stream the same way: the stream is the profile.
* **Spans nest.** Each thread keeps its own span stack
  (:class:`threading.local`); a span's path is the ``/``-joined stack at
  entry time (``kernel.run/kernel.draw``). Aggregation is by path —
  repeated entries accumulate ``count`` and ``seconds`` rather than
  producing one record per entry, which keeps a million-round run's
  telemetry O(distinct paths).
* **Merge semantics.** Snapshots are plain JSON-able dicts stamped with a
  unique id. Merging sums span counts/durations and counters, takes the
  max of gauges, and is *duplicate-safe*: a snapshot whose id (or any of
  whose already-merged ids) was seen before is skipped, so re-delivering
  a worker's snapshot cannot double-count. This is what lets
  ``run_many`` fold ProcessPoolExecutor workers' collectors into the
  parent in any order.
* **Determinism.** Recording only ever *observes* (wall-clock reads, dict
  updates); it never touches simulation RNG streams, so seeded results
  are bit-identical with telemetry on or off (enforced by
  ``tests/obs/test_instrumentation.py``).
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs import events as _events

__all__ = [
    "Collector",
    "enabled",
    "enable",
    "disable",
    "collector",
    "set_collector",
    "scoped",
    "span",
    "count",
    "gauge_max",
    "add_duration",
    "merge_snapshot",
    "peak_rss_bytes",
    "sample_peak_rss",
    "cpu_and_faults",
    "report_gc",
    "reset_span_stack",
    "SNAPSHOT_SCHEMA",
]

#: Version stamp carried by every snapshot so future readers can detect
#: format drift in persisted telemetry blocks.
SNAPSHOT_SCHEMA = 1


class Collector:
    """Thread-safe aggregation of spans, counters, and gauges.

    Its state changes only through :meth:`fold`. A collector is cheap
    to create; pool workers install a fresh one per unit and ship its
    :meth:`snapshot` back with the result.
    """

    def __init__(self) -> None:
        # Reentrant: merge folds each entry while holding it.
        self._lock = threading.RLock()
        # path -> [count, total_seconds, attrs]
        self._spans: dict[str, list] = {}
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._merged_ids: set[str] = set()
        self.id = uuid.uuid4().hex

    # -- the one transition --------------------------------------------
    def fold(self, event: dict[str, Any]) -> bool:
        """Apply one event; returns whether it changed the state.

        ``span_end``/``duration`` add ``n`` entries (1 for a span) and
        ``seconds`` under ``path``, ``attrs`` last writer wins ("the last
        calibrate.churn ran at peers=5000"); ``counter`` adds ``n``;
        ``gauge`` keeps the maximum ``value`` (a high-water mark);
        ``merge`` is :meth:`merge`. Any other type changes nothing.
        """
        kind = event["type"]
        if kind == "merge":
            return self.merge(event["snapshot"], prefix=event["prefix"])
        with self._lock:
            if kind == "span_end" or kind == "duration":
                path = event["path"]
                entry = self._spans.get(path)
                if entry is None:
                    entry = self._spans[path] = [0, 0.0, {}]
                entry[0] += event.get("n", 1)
                entry[1] += event["seconds"]
                attrs = event.get("attrs")
                if attrs:
                    entry[2].update(attrs)
            elif kind == "counter":
                name = event["name"]
                self._counters[name] = (
                    self._counters.get(name, 0.0) + event["n"]
                )
            elif kind == "gauge":
                name, value = event["name"], event["value"]
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = float(value)
            else:
                return False
        return True

    # -- views ---------------------------------------------------------
    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy of this collector's state.

        Carries the collector's unique ``id`` plus the ids of every
        snapshot already merged into it, so downstream merges stay
        duplicate-safe even through relays (worker -> sweep -> runner).
        """
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "id": self.id,
                "merged_ids": sorted(self._merged_ids),
                "spans": {
                    path: {"count": c, "seconds": s, "attrs": dict(a)}
                    for path, (c, s, a) in self._spans.items()
                },
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }

    def merge(self, snapshot: Optional[dict], prefix: str = "") -> bool:
        """Fold a :meth:`snapshot` dict into this collector, entry by
        entry through :meth:`fold`.

        Returns ``False`` (and changes nothing) when ``snapshot`` is
        ``None`` or was already merged — making delivery idempotent and
        order-independent. A ``prefix`` re-roots the snapshot's span
        paths (``prefix/path``) so a worker's bare ``kernel.run`` lands
        where the equivalent in-process run would have recorded it;
        counters and gauges are process-wide names and merge unprefixed.
        """
        if not snapshot:
            return False
        snap_id = snapshot.get("id")
        with self._lock:
            if snap_id is not None:
                if snap_id in self._merged_ids or snap_id == self.id:
                    return False
                self._merged_ids.add(snap_id)
            self._merged_ids.update(snapshot.get("merged_ids", ()))
            for path, data in snapshot.get("spans", {}).items():
                self.fold({
                    "type": "duration",
                    "path": f"{prefix}/{path}" if prefix else path,
                    "n": int(data.get("count", 0)),
                    "seconds": float(data.get("seconds", 0.0)),
                    "attrs": data.get("attrs"),
                })
            for name, value in snapshot.get("counters", {}).items():
                self.fold({"type": "counter", "name": name, "n": value})
            for name, value in snapshot.get("gauges", {}).items():
                self.fold({"type": "gauge", "name": name, "value": value})
        return True

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._spans or self._counters or self._gauges)


# ---------------------------------------------------------------------
# Module-level state: one global collector, one enabled flag, and a
# per-thread span stack. ``REPRO_OBS=1`` in the environment enables
# collection at import time (useful for CLI runs and CI).
# ---------------------------------------------------------------------
_enabled = False
_collector = Collector()
_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


#: Cyclic-collector passes per generation, and their pause seconds, since
#: the last :func:`report_gc`. A pass can start inside any allocation —
#: one made while a ``Collector`` lock or the event sink is held included
#: — so the ``gc.callbacks`` hook only tallies here.
_gc_pending: list = [0, 0, 0, 0.0]
_gc_started = 0.0
_GC_COUNTERS = (
    "gc.collections.gen0",
    "gc.collections.gen1",
    "gc.collections.gen2",
    "gc.pause_s",
)


def _on_gc(phase: str, info: dict) -> None:
    """The ``gc.callbacks`` hook, installed while collection is enabled."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
    else:
        _gc_pending[info["generation"]] += 1
        _gc_pending[3] += time.perf_counter() - _gc_started


def report_gc() -> None:
    """Record what the cyclic collector cost since the last call (or since
    :func:`enable`): counters ``gc.collections.gen0/1/2`` (passes) and
    ``gc.pause_s`` (seconds inside them). This process only — a pool
    worker's passes are not shipped. No-op while disabled.
    """
    pending = _gc_pending[:]
    _gc_pending[:] = (0, 0, 0, 0.0)
    for name, value in zip(_GC_COUNTERS, pending):
        if value:
            count(name, value)


def reset_span_stack() -> None:
    """Clear the calling thread's span stack.

    Worker-process entry points call this so recorded paths are rooted
    the same way regardless of the multiprocessing start method: under
    ``fork`` the child inherits whatever spans the parent had open at
    fork time, under ``spawn`` it starts empty.
    """
    _tls.stack = []


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return _enabled


def enable() -> None:
    """Turn collection on (idempotent). The current collector is kept."""
    global _enabled
    if not _enabled:
        _gc_pending[:] = (0, 0, 0, 0.0)
        gc.callbacks.append(_on_gc)
    _enabled = True


def disable() -> None:
    """Turn collection off (idempotent). Recorded data is kept."""
    global _enabled
    if _enabled:
        gc.callbacks.remove(_on_gc)
    _enabled = False


def collector() -> Collector:
    """The collector currently receiving recordings."""
    return _collector


def set_collector(target: Collector) -> Collector:
    """Swap the active collector; returns the previous one."""
    global _collector
    previous = _collector
    _collector = target
    return previous


@contextmanager
def scoped() -> Iterator[Collector]:
    """Route recordings into a fresh collector for the ``with`` body.

    Used to carve out a per-experiment telemetry block; on exit the
    previous collector is restored and the child's data is merged back
    into it, so scoping never loses measurements. The merge is not
    streamed: the child's events already were, as they happened. The
    child refuses the snapshots its parent already merged, as replay does.
    """
    child = Collector()
    with _collector._lock:
        child._merged_ids.update(_collector._merged_ids)
    previous = set_collector(child)
    try:
        yield child
    finally:
        set_collector(previous)
        previous.merge(child.snapshot())


# ---------------------------------------------------------------------
# Recording: each entry point builds its one event for _record.
# ---------------------------------------------------------------------
def _record(event: dict[str, Any]) -> bool:
    """Fold ``event`` into the active collector and, when it changed the
    state (a repeated ``merge`` does not), stream it while a sink is
    installed. Returns the fold's verdict."""
    if not _collector.fold(event):
        return False
    if _events._sink is not None:
        _events.emit_event(**event)
    return True


class _Span:
    """Context manager that times one nested span entry."""

    __slots__ = ("_name", "_attrs", "_path", "_started")

    def __init__(self, name: str, attrs: dict) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        stack = _stack()
        stack.append(self._name)
        self._path = "/".join(stack)
        if _events._sink is not None:
            _events.emit_event(
                "span_start", path=self._path, attrs=self._attrs
            )
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._started
        stack = _stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        _record({
            "type": "span_end", "path": self._path, "seconds": elapsed,
            "attrs": self._attrs,
        })
        return False


class _NoopSpan:
    """Shared do-nothing span returned while collection is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any):
    """Time a code region: ``with obs.span("calibrate.churn", peers=5000):``.

    Spans nest per thread; the recorded path is the ``/``-joined stack
    (``sweep.grid/kernel.run``). Attributes are attached to the
    aggregated entry, last writer wins.
    """
    if not _enabled:
        return _NOOP_SPAN
    return _Span(name, attrs)


def count(name: str, n: float = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _enabled:
        _record({"type": "counter", "name": name, "n": n})


def gauge_max(name: str, value: float) -> None:
    """Record a high-water-mark gauge (no-op while disabled)."""
    if _enabled:
        _record({"type": "gauge", "name": name, "value": float(value)})


def merge_snapshot(snapshot: Optional[dict]) -> bool:
    """Merge a worker's snapshot into the active collector, re-rooted.

    The snapshot's span paths are prefixed with the calling thread's
    current span path, so a pool worker's ``kernel.run`` nests exactly
    where a sequential in-process run would have recorded it (e.g.
    ``parallel.run_many/kernel.run``) and profiles keep one shape
    regardless of worker count. Call this *inside* the span that fanned
    the work out. The streamed ``merge`` event carries the whole
    snapshot, so replay applies the same duplicate-safe merge. No-op
    while disabled.
    """
    if not _enabled:
        return False
    return _record(
        {"type": "merge", "prefix": "/".join(_stack()), "snapshot": snapshot}
    )


def add_duration(name: str, seconds: float, n: int = 1) -> None:
    """Report a locally-accumulated duration under the current span path.

    Hot loops keep per-phase totals in local floats and call this once;
    ``name`` is appended to the calling thread's span stack so phases
    appear nested under their enclosing span, and ``n`` keeps the true
    entry count (e.g. rounds). No-op while disabled.
    """
    if not _enabled:
        return
    stack = _stack()
    path = "/".join((*stack, name)) if stack else name
    _record({"type": "duration", "path": path, "seconds": seconds, "n": n})


# ---------------------------------------------------------------------
# Memory sampling
# ---------------------------------------------------------------------
def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (0 if unknown).

    ``ru_maxrss`` is a process-lifetime high-water mark: it only ever
    grows, so per-phase readings mean "peak so far", not "used by this
    phase".
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024


def sample_peak_rss(label: str = "process") -> int:
    """Record the current peak RSS as gauge ``{label}.peak_rss_bytes``.

    Returns the sampled value; records only while enabled.
    """
    peak = peak_rss_bytes()
    if _enabled and peak:
        gauge_max(f"{label}.peak_rss_bytes", float(peak))
    return peak


def cpu_and_faults() -> tuple[float, int, int]:
    """This process's CPU seconds (user + system), minor page faults and
    involuntary context switches so far, from ``getrusage``; ``(0.0, 0,
    0)`` where it is unavailable.

    A phase's difference of two readings tells computing from faulting
    in pages; against the phase's wall time, it tells waiting for a CPU
    from either, and the switches say how often the process was
    preempted while it could still run.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0.0, 0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt, usage.ru_nivcsw


if os.environ.get("REPRO_OBS", "").strip().lower() not in ("", "0", "false"):
    enable()
