"""The scheduled gates: what neither tier-1 nor the repo benchmark checks.

One table, ``GATES``. Each row names a measure (a function returning a
dict of readings), the reading it looks at, a ceiling and why the
ceiling is there; ``run`` calls each distinct measure once, prints one
``name reading limit ok|DRIFT`` line per row and returns 1 if any reading
is over (or is NaN); ``readings`` makes the same calls without a verdict. There is no record file, no history and nothing to
override: to move a gate, edit its row.

Everything a pull request can break in seconds is asserted by the tier-1
suite, and end-to-end speed and memory by the repo benchmark
(``BENCHMARK.json``); the rows here need 10^4-10^7 peers or a timing
ratio, so they run weekly::

    python benchmarks/gates.py        # ~20 s, ~1 GB, exit 1 on any DRIFT
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

Readings = dict[str, float]


@dataclass(frozen=True)
class Gate:
    name: str
    measure: Callable[[], Readings]
    field: str
    limit: float
    why: str


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------
def cross_engine_10k() -> Readings:
    """Both engines on the 10k-peer selection scenario, one seed, 60
    rounds, costs calibrated off the event substrate: relative
    disagreement of the aggregate hit rate and of the total cost, as
    ``benchmarks/agreement.py`` measures it."""
    from benchmarks.agreement import compare_engines
    from repro.experiments.scenario import paper_scenario
    from repro.fastsim.compare import calibrate_costs
    from repro.pdht.config import PdhtConfig

    params = paper_scenario().scaled(0.5).with_query_freq(1 / 30)
    config = PdhtConfig.from_scenario(params)
    costs = calibrate_costs(
        params, config, lookup_probes=256, flood_probes=64, walk_probes=128
    )
    agreement = compare_engines(
        params, config=config, duration=60.0, seeds=(0,), costs=costs
    )
    return {
        "hit_rate_rel_diff": agreement.hit_rate_rel_diff,
        "cost_rel_diff": agreement.cost_rel_diff,
    }


def _kernel_seconds_100k(duration: float, workload=None) -> float:
    """The kernel's own wall-clock (construction and cost resolution
    excluded) for one seeded run of the 100k-peer scenario."""
    from repro.experiments.scenario import fastsim_scenario
    from repro.fastsim import run_fastsim

    report = run_fastsim(
        fastsim_scenario(scale=5.0), duration=duration, seed=0,
        workload=workload,
    )
    return report.elapsed_seconds


def drift_draw(segments: int = 24) -> Readings:
    """Kernel wall-clock under GradualDrift over the stationary stream's,
    100k peers x 600 rounds, alternating, best of 3 each. A drift
    boundary splits the batched query draw, so ``segments`` boundaries
    cost ``segments`` draw calls; a draw loop that went per-round is
    what ``segments=600`` reads."""
    import numpy as np

    from repro.analysis.zipf import ZipfDistribution
    from repro.experiments.scenario import fastsim_scenario
    from repro.workloads import GradualDrift

    duration = 600.0
    scenario = fastsim_scenario(scale=5.0)
    zipf = ZipfDistribution(scenario.n_keys, scenario.alpha)
    drift = GradualDrift(period=duration / segments)
    stationary_s = drift_s = math.inf
    for _ in range(3):
        stationary_s = min(stationary_s, _kernel_seconds_100k(duration))
        stream = drift.build(
            zipf, np.random.default_rng(np.random.SeedSequence(0))
        )
        drift_s = min(drift_s, _kernel_seconds_100k(duration, stream))
    return {"slowdown": drift_s / stationary_s}


#: Rounds of (off, on, recorded) kernel runs one overhead reading takes.
OVERHEAD_ROUNDS = 11


def obs_overhead() -> Readings:
    """Kernel wall-clock at 100k peers x 1200 rounds in three modes —
    telemetry off, collecting, collecting and streaming every event to a
    JSONL sink — run back to back ``OVERHEAD_ROUNDS`` times, so a slow
    spell on the box lands on all three. ``telemetry`` is the median
    over rounds of on / off, ``recorder`` of recorded / on (on a 0.2 s
    run the ratio of the per-mode minima spread 0.98-1.07 on a shared
    2-CPU box, the paired median 0.98-1.03)."""
    import statistics
    import tempfile

    from repro import obs
    from repro.obs import events

    telemetry, recorder = [], []
    was_enabled = obs.enabled()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for attempt in range(OVERHEAD_ROUNDS):
                seconds = {}
                for mode in ("off", "on", "recorded"):
                    sink = None
                    if mode == "recorded":
                        sink = events.JsonlSink(
                            Path(tmp) / f"events-{attempt}.jsonl"
                        )
                    previous = obs.set_collector(obs.Collector())
                    previous_sink = events.set_sink(sink)
                    if mode == "off":
                        obs.disable()
                    else:
                        obs.enable()
                    try:
                        seconds[mode] = _kernel_seconds_100k(1200.0)
                    finally:
                        obs.disable()
                        obs.set_collector(previous)
                        events.set_sink(previous_sink)
                        if sink is not None:
                            sink.close()
                telemetry.append(seconds["on"] / seconds["off"])
                recorder.append(seconds["recorded"] / seconds["on"])
    finally:
        if was_enabled:
            obs.enable()
    return {
        "telemetry": statistics.median(telemetry),
        "recorder": statistics.median(recorder),
    }


def scale_10m() -> Readings:
    """One seeded 24-round kernel run at 10^7 peers under tracemalloc
    (numpy allocates through its hooks) with every counted cache cleared
    first, so it pays what a fresh process pays (planning, Zipf tables,
    guide table): the traced allocation peak."""
    import gc
    import tracemalloc

    from repro.experiments.scenario import fastsim_scenario
    from repro.fastsim import FastSimKernel
    from repro.obs.cache import _CACHES

    scenario = fastsim_scenario(scale=500.0)
    for cache in _CACHES.values():
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        FastSimKernel(scenario, seed=0).run(24.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"wide_peak_gib": peak / 2**30}


def table1_index(params=None) -> Readings:
    """An ``indexAll`` event strategy built on the Table 1 scenario
    (``params``, default ``paper_scenario()``: 20,000 peers, all DHT
    members, every one of the 40,000 keys preloaded at its replica group)
    under tracemalloc, with every counted cache cleared first and no
    round run: the traced allocation peak of the substrate and its
    index."""
    import gc
    import tracemalloc

    from repro.experiments.scenario import paper_scenario
    from repro.obs.cache import _CACHES
    from repro.pdht.strategies import SimulatedStrategy

    params = paper_scenario() if params is None else params
    for cache in _CACHES.values():
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        SimulatedStrategy(params, strategy="indexAll", seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_mib": peak / 2**20}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
GATES = (
    Gate("cross_engine_10k.hit_rate", cross_engine_10k,
         "hit_rate_rel_diff", 0.05,
         "the kernel is trusted because it agrees with the event engine; "
         "tier-1 checks that at <= 1,000 peers only (ROADMAP item 1 "
         "replaces both with an exact reference)"),
    Gate("cross_engine_10k.cost", cross_engine_10k,
         "cost_rel_diff", 0.05,
         "as above, for total messages"),
    Gate("drift_draw.slowdown", drift_draw,
         "slowdown", 2.0,
         "24 segments read 1.35-1.51x, a per-round draw loop 11.7x; the "
         "ratio moved 1.2 -> 1.5 when the stationary draw got 2x faster "
         "(PR 17), so the ceiling sits between the two, not on the reading"),
    Gate("obs_overhead.telemetry", obs_overhead,
         "telemetry", 1.05,
         "collection is per span and per heartbeat, never per query; ten "
         "consecutive readings at 249e912 were 0.98-1.03, so 1.02 is "
         "inside the noise of a 0.2 s timing on a shared box and 1.05 is "
         "not (the ten are in CHANGES.md)"),
    Gate("obs_overhead.recorder", obs_overhead,
         "recorder", 1.05,
         "streaming events to a flushed JSONL sink must cost no more over "
         "collection than collection costs over nothing (ten readings "
         "0.99-1.02)"),
    Gate("scale_10m.wide_peak_gib", scale_10m,
         "wide_peak_gib", 8.0,
         "10^7 peers must fit a 16 GB runner; the peak is the kernel's own, "
         "~35 B a key over 2*10^7 keys (what it holds plus one draw block, "
         "no O(queries) transient), and the closed-form planning before it "
         "peaks below that at ~16 B a key (reads 0.65)"),
    Gate("table1_index.peak_mib", table1_index,
         "peak_mib", 190.0,
         "the Table 1 event substrate must stay buildable unreduced; it "
         "read 219.0 MiB when each of the 20,000 members kept its own map "
         "of its group's keys (2M entries) and 160.5 with one index per "
         "replica group (40,000), so the ceiling sits between the two"),
)


def readings(gates: Iterable[Gate]) -> dict[Callable[[], Readings], Readings]:
    """Each distinct measure of ``gates`` called once, in table order:
    the gates' calls without their verdicts (``tools/reach.py`` records
    these, and a timing ratio read under its profiler means nothing)."""
    measured: dict[Callable[[], Readings], Readings] = {}
    for gate in gates:
        if gate.measure not in measured:
            measured[gate.measure] = gate.measure()
    return measured


def run(gates: Iterable[Gate], out: Callable[[str], None] = print) -> int:
    """Print one line per gate; 1 if any reading is over its limit."""
    gates = tuple(gates)
    measured = readings(gates)
    drifted = False
    for gate in gates:
        reading = measured[gate.measure][gate.field]
        ok = reading <= gate.limit  # False for NaN
        drifted = drifted or not ok
        out(
            f"{gate.name:<28} {reading:>10.4g}  <= {gate.limit:<6g} "
            + ("ok" if ok else f"DRIFT  ({gate.why})")
        )
    return 1 if drifted else 0


if __name__ == "__main__":
    # The repo root too, for the measures that import benchmarks.agreement.
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(run(GATES))
