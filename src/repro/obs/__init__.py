"""Zero-dependency observability: spans, counters, and merged profiles.

``repro.obs`` is the standing instrumentation layer both engines report
into. It is **off by default** — enable it per process
(:func:`enable` / ``REPRO_OBS=1``) and every instrumented hot path
(calibration probes, kernel round phases, event-engine dispatch, sweep
cells) starts accumulating into one process-global :class:`Collector`::

    from repro import obs

    obs.enable()
    with obs.span("calibrate.churn", peers=5000):
        ...
    obs.count("cache.churn_costs.hit")
    print(obs.profile_text(obs.collector()))

Each recording is one event that :meth:`Collector.fold` — the
collector's only transition — applies to the active collector. Worker
processes (``fastsim.parallel.run_many``, experiment replicates) ship
their collector's :meth:`Collector.snapshot` back with each result; the
parent merges them (order-independent, duplicate-safe) so a parallel
sweep reports a single profile. ``ExperimentResult.telemetry`` and the
runner's ``--profile`` flag surface the same data.

The *live* half is the flight recorder (:mod:`repro.obs.events`): install
a sink (``events.set_sink`` / ``REPRO_OBS_EVENTS=path``) and every
event folded above is also streamed the moment it happens, plus
:func:`progress` / :func:`heartbeat` reports with totals and ETA.
:mod:`repro.obs.export` turns a recorded stream back into a snapshot
(:func:`replay`, which is the same fold over a fresh collector) or a
Perfetto-loadable Chrome trace (:func:`chrome_trace`).
"""

from repro.obs.collector import (
    Collector,
    SNAPSHOT_SCHEMA,
    add_duration,
    collector,
    count,
    cpu_and_faults,
    disable,
    enable,
    enabled,
    gauge_max,
    merge_snapshot,
    peak_rss_bytes,
    report_gc,
    reset_span_stack,
    sample_peak_rss,
    scoped,
    set_collector,
    span,
)
from repro.obs.cache import cache_stats, counted_cache
from repro.obs.export import chrome_trace, replay
from repro.obs.profile import profile_data, profile_text
from repro.obs.progress import ProgressRenderer, heartbeat, progress
from repro.obs import events

__all__ = [
    "cache_stats",
    "counted_cache",
    "Collector",
    "SNAPSHOT_SCHEMA",
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
    "cpu_and_faults",
    "report_gc",
    "reset_span_stack",
    "sample_peak_rss",
    "profile_data",
    "profile_text",
    "events",
    "progress",
    "heartbeat",
    "ProgressRenderer",
    "replay",
    "chrome_trace",
]
