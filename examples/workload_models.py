#!/usr/bin/env python
"""Walkthrough of the repro.workloads model family.

Six workload models behind one protocol — stationary Zipf,
rank swap, gradual drift, flash crowd, diurnal cycle, trace replay —
each consumable by both simulation engines. This demo:

1. runs the Section 5 selection strategy on the vectorized kernel under
   every preset model and prints the measured hit rate and cost;
2. shows how a drifting workload degrades the stationary TTL index and
   how the `adaptivity-tracking` experiment quantifies the recovery lag;
3. records a query trace, saves it as JSONL, and replays it — the same
   queries, bit for bit, on either engine.

Run with::

    python examples/workload_models.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import ZipfDistribution, run_fastsim
from repro.experiments import simulation_scenario
from repro.experiments.figures import adaptivity_tracking
from repro.pdht.config import PdhtConfig
from repro.sim.rng import RandomStreams
from repro.workloads import (
    WORKLOAD_MODEL_NAMES,
    QueryTrace,
    StationaryZipf,
    TraceReplay,
    model_from_name,
    record_trace,
)

DURATION = 240.0


def stream(model, params, seed=0):
    return model.build(
        ZipfDistribution(params.n_keys, params.alpha),
        np.random.default_rng(np.random.SeedSequence([seed, 0xDE30])),
    )


def main() -> None:
    params = simulation_scenario(scale=0.02)  # 400 peers, 800 keys
    config = PdhtConfig.from_scenario(params)

    # 1. The selection strategy under every preset model.
    print(f"selection strategy across workload models "
          f"({params.num_peers} peers, {DURATION:.0f} rounds, vectorized)\n")
    print(f"{'model':16s} {'hit rate':>9s} {'msg/s':>9s}")
    for name in WORKLOAD_MODEL_NAMES:
        model = model_from_name(name, DURATION)
        report = run_fastsim(
            params, config=config, duration=DURATION, seed=0,
            workload=stream(model, params),
        )
        print(f"{name:16s} {report.hit_rate:9.3f} "
              f"{report.messages_per_second:9.1f}")

    # 2. Convergence lag after each model's shift (selection vs oracle).
    fig = adaptivity_tracking(
        params=params, duration=DURATION, window=DURATION / 12,
    )
    print(f"\n{fig.notes}")

    # 3. Record once, replay everywhere (JSONL).
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    trace = record_trace(
        StationaryZipf().build(zipf, RandomStreams(99).get("demo-trace")),
        duration=DURATION, queries_per_round=12,
        description="stationary reference trace",
    )
    path = Path(tempfile.mkdtemp(prefix="pdht-workloads-")) / "trace.jsonl"
    trace.save(path)
    replayed = TraceReplay(QueryTrace.load(path))
    report = run_fastsim(
        params, config=config, duration=DURATION, seed=0,
        workload=stream(replayed, params),
    )
    print(f"\ntrace replay: {len(trace)} recorded queries -> {path.name}; "
          f"kernel replayed {report.queries} "
          f"(hit rate {report.hit_rate:.3f})")


if __name__ == "__main__":
    main()
