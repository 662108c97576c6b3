"""Progress events with totals and ETA on top of the flight recorder.

Progress is *live-only* telemetry: a ``progress`` event says "done/total
as of now", which is meaningless to aggregate after the fact, so unlike
spans/counters it never touches the :class:`~repro.obs.collector.Collector`
— replay fidelity (``profile_data(replay(events)) == profile_data(snapshot)``)
holds by construction. Everything here is a no-op unless a recorder sink
is installed (:func:`repro.obs.events.set_sink`), independent of whether
aggregate collection is enabled.

Three layers:

* :func:`progress` — emit one ``progress`` event for a named unit of
  work (``sweep.cells``, ``parallel.jobs``, …). Names obey the RL107
  ``segment(.segment)*`` convention, same as spans and counters.
* :func:`heartbeat` — the hot-loop form. Returns ``None`` when nothing
  is recording so a kernel can hoist the check out of its round loop
  (``beat = obs.heartbeat(...)`` once, ``beat(i)`` every N rounds), and
  never perturbs RNG state: seeded results stay bit-identical.
* :class:`ProgressRenderer` — an event *sink* that renders progress
  lines to stderr with percentage and ETA. The runner's ``--progress``
  flag tees it next to the export ring; stdout stays parseable.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional, TextIO

from repro.obs import events as _events

__all__ = ["progress", "heartbeat", "ProgressRenderer"]


def progress(
    name: str,
    done: int,
    total: Optional[int] = None,
    **fields: Any,
) -> None:
    """Report that ``done`` (of ``total``, if known) units finished.

    No-op without a recorder sink. Extra keyword fields ride along on
    the event (e.g. ``cell="alpha=0.9"``).
    """
    if _events._sink is None:
        return
    _events.emit_event(
        "progress", name=name, done=done, total=total, **fields
    )


def heartbeat(
    name: str, total: Optional[int] = None
) -> Optional[Callable[[int], None]]:
    """Hot-loop progress: returns a ``beat(done)`` callable, or ``None``
    when no sink is installed.

    The ``None`` return is the contract that keeps heartbeats out of
    un-recorded hot paths entirely — callers hoist
    ``beat = obs.heartbeat(...)`` above the loop and guard on it. The
    initial ``beat`` at 0 marks the start so a renderer can show the
    unit immediately and an ETA has a baseline.
    """
    if _events._sink is None:
        return None

    def beat(done: int) -> None:
        _events.emit_event("progress", name=name, done=done, total=total)

    beat(0)
    return beat


class ProgressRenderer:
    """Render ``progress`` events as live stderr lines.

    A sink (tee it with the export ring via
    :class:`~repro.obs.events.TeeSink`). Per name it remembers the first
    observation and derives a rate from the event ``t`` stamps — clock
    reads stay inside ``repro.obs`` (RL101) because the timestamps were
    minted by the recorder. Output is rate-limited per name
    (``min_interval`` seconds, completion lines always shown) and
    ``remote`` events are skipped: workers' inner heartbeats would
    interleave nonsensically with the parent's per-cell lines.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.25,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._first: dict[str, tuple[float, int]] = {}
        self._last_render: dict[str, float] = {}

    def emit(self, event: dict[str, Any]) -> None:
        if event.get("type") != "progress" or event.get("remote"):
            return
        name = event["name"]
        done = event["done"]
        total = event.get("total")
        now = event["t"]
        if name not in self._first:
            self._first[name] = (now, done)
        complete = total is not None and done >= total
        last = self._last_render.get(name)
        if (
            not complete
            and last is not None
            and now - last < self.min_interval
        ):
            return
        self._last_render[name] = now
        self.stream.write(self._format(name, done, total, now) + "\n")
        self.stream.flush()

    def _format(
        self, name: str, done: int, total: Optional[int], now: float
    ) -> str:
        t0, done0 = self._first[name]
        if total:
            text = f"{name}: {done}/{total} ({100.0 * done / total:.0f}%)"
        else:
            text = f"{name}: {done}"
        elapsed = now - t0
        advanced = done - done0
        if total and advanced > 0 and done < total:
            eta = (total - done) * elapsed / advanced
            text += f" eta {eta:.0f}s"
        elif total and done >= total:
            text += f" in {elapsed:.1f}s"
        return text
