#!/usr/bin/env python
"""Watch a parallel sweep run live, then open it in Perfetto.

``repro.obs`` is snapshot-at-end by design — but install a flight
recorder sink (:mod:`repro.obs.events`) and the same instrumentation
streams structured events the moment they happen: span starts/ends,
counters, kernel round heartbeats, and per-cell ``sweep.cells`` /
``parallel.jobs`` progress with totals. Pool workers record into their
own ring and ship events back with each result, so the stream carries
one lane per worker process.

This example drives a jobs=2 sweep with three sinks teed together:

* a :class:`ProgressRenderer` printing live progress lines with ETA to
  stderr (what the runner's ``--progress`` flag does),
* an in-memory ring feeding the exporters afterwards,
* and the assertions below, which prove the stream reconstructs the
  end-of-run profile exactly (``replay``) and renders a Chrome trace
  with distinct worker lanes.

Run with::

    python examples/live_progress.py

The equivalent from the CLI::

    python -m repro.experiments.runner sweep --jobs 2 --progress \\
        --trace-out trace.json --events-out events.jsonl

Load the written ``trace.json`` at https://ui.perfetto.dev (or
``chrome://tracing``) to see the main process fanning cells out over
the worker lanes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro import obs
from repro.experiments import simulation_scenario
from repro.experiments.execution import Execution
from repro.experiments.sweeps import GridAxes, sweep_grid
from repro.obs import events

AXES = GridAxes(
    ttl_factors=(0.5, 1.0, 2.0),
    alphas=(0.8, 1.2),
    query_freqs=(1 / 30,),
)
DURATION = 60.0


def main() -> None:
    params = simulation_scenario(scale=0.02)  # 400 peers, 800 keys
    obs.enable()
    ring = events.RingBufferSink()
    with events.recorded(events.TeeSink(ring, obs.ProgressRenderer())):
        sweep_grid(
            AXES, params, duration=DURATION, seed=0,
            execution=Execution("vectorized", jobs=2),
        )
    obs.disable()

    recorded = ring.events()
    progress = [e for e in recorded if e["type"] == "progress"]
    remote = [e for e in recorded if e.get("remote")]
    print(f"recorded:  {len(recorded)} events, {len(progress)} progress")

    # The stream alone rebuilds the end-of-run profile exactly.
    rebuilt = obs.replay(recorded)
    live = obs.collector().snapshot()
    assert rebuilt["counters"] == live["counters"]
    assert rebuilt["spans"].keys() == live["spans"].keys()
    assert rebuilt["counters"]["sweep.cells"] == AXES.size
    print(
        f"replayed:  {int(rebuilt['counters']['sweep.cells'])} cells, "
        "profile matches the live snapshot"
    )

    # Chrome trace: one lane per process, workers included.
    trace = obs.chrome_trace(recorded)
    lanes = {
        e["pid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M"
    }
    workers = sorted(n for n in lanes.values() if n.startswith("worker-"))
    assert lanes.get(os.getpid()) == "main"
    assert remote and workers
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        trace_path.write_text(json.dumps(trace))
        print(
            f"trace:     {len(trace['traceEvents'])} trace events, "
            f"lanes: main + {', '.join(workers)}"
        )


if __name__ == "__main__":
    main()
