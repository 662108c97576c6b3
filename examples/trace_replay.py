#!/usr/bin/env python
"""Trace-driven comparison: every strategy sees the *same* queries.

Records a Zipf query trace once, saves it to JSON, and replays it against
three PDHT configurations (different keyTtl values). Because the query
sequence is identical, cost and hit-rate differences are attributable to
the configuration alone — the standard trace-driven-simulation workflow.
Also exports the resulting comparison as CSV next to the trace.

Run with::

    python examples/trace_replay.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import PdhtConfig, PdhtNetwork, ZipfDistribution
from repro.analysis.threshold import solve_threshold
from repro.experiments import simulation_scenario
from repro.experiments.export import save_figure
from repro.experiments.figures import FigureSeries
from repro.sim.rng import RandomStreams
from repro.workloads import QueryTrace, StationaryZipf, record_trace


def replay(trace: QueryTrace, key_ttl: float, seed: int = 31) -> tuple[float, float]:
    """Replay a trace against a PDHT with the given TTL.

    Returns (hit rate, messages per query).
    """
    params = simulation_scenario(scale=0.02)
    config = PdhtConfig.from_scenario(params).with_ttl(key_ttl)
    net = PdhtNetwork(params, config, seed=seed)
    net.publish_all({f"key-{i:06d}": f"value-{i}" for i in range(params.n_keys)})

    hits = queries = messages = 0
    clock = 0.0
    for event in trace:
        if event.time > clock:
            net.advance(event.time - clock)
            clock = event.time
        outcome = net.query(net.random_online_peer(), f"key-{event.key_index:06d}")
        queries += 1
        hits += int(outcome.via_index)
        messages += outcome.total_messages
    return hits / queries, messages / queries


def main() -> None:
    params = simulation_scenario(scale=0.02)
    ideal_ttl = solve_threshold(params).key_ttl

    # 1. Record the workload once.
    workload = StationaryZipf().build(
        ZipfDistribution(params.n_keys, params.alpha),
        RandomStreams(99).get("trace-queries"),
    )
    trace = record_trace(
        workload, duration=240.0, queries_per_round=10,
        description="Zipf(1.2) reference trace",
    )
    out_dir = Path(tempfile.mkdtemp(prefix="pdht-trace-"))
    trace_path = out_dir / "reference.json"
    trace.save(trace_path)
    print(f"recorded {len(trace)} queries over {trace.duration():.0f}s "
          f"-> {trace_path}")

    # 2. Replay the identical trace against three TTL configurations.
    reloaded = QueryTrace.load(trace_path)
    labels, hit_rates, costs = [], [], []
    for label, ttl in [
        ("ttl/10", ideal_ttl / 10),
        ("ideal (1/fMin)", ideal_ttl),
        ("ttl*10", ideal_ttl * 10),
    ]:
        hit_rate, msg_per_query = replay(reloaded, ttl)
        labels.append(label)
        hit_rates.append(hit_rate)
        costs.append(msg_per_query)
        print(f"  keyTtl {label:16s} hit rate {hit_rate:5.1%}   "
              f"{msg_per_query:6.1f} msg/query")

    # 3. Export the comparison for plotting.
    figure = FigureSeries(
        name="trace-replay TTL comparison",
        x_label="keyTtl",
        x_values=labels,
        series={"hit rate": hit_rates, "msg/query": costs},
    )
    csv_path = save_figure(figure, out_dir / "ttl_comparison.csv")
    print(f"\ncomparison exported to {csv_path}")


if __name__ == "__main__":
    main()
