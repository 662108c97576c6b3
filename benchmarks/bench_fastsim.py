"""Vectorized kernel vs discrete-event engine: speedup and agreement.

Runs the partial-selection scenario at 1k / 10k / 100k peers. Both engines
run (with calibrated per-op costs) where the event engine is tractable;
at 100k peers only the vectorized kernel runs — that scale is the point of
having it. Two more scenario families exercise the lifted engine gates:
churn (availabilities 0.9 and 0.5, availability-dependent per-op costs)
and staleness (per-key payload versions). Emits a JSON record (printed,
and written to ``benchmarks/bench_fastsim.json``) alongside the
human-readable table.

Acceptance gates — the run FAILS (non-zero exit standalone, assertion
under pytest) when any drifts:

* >= 10x speedup at the 10k-peer scenario, hit rate and total cost
  within 5%;
* churn: hit rate and total cost within 5% of the event engine at
  availabilities 0.9 and 0.5;
* staleness: stale hit fraction and hit rate within 5%;
* workloads: a GradualDrift run at 100k peers stays within 1.2x of the
  stationary kernel wall-clock (the segment-batched draw path must not
  regress into a per-round loop);
* jobs: the default sweep grid at 100k peers reaches >= 2.5x wall-clock
  speedup at ``jobs=4`` vs ``jobs=1`` with identical cell values
  (enforced only on runners with >= 4 CPUs; always recorded);
* telemetry: the 100k-peer kernel run with :mod:`repro.obs` collection
  enabled stays within 2% of the disabled wall-clock, and the seeded
  reports are bit-identical either way;
* shm: shared-memory staging shrinks the per-worker pickle payload by
  >= 3x on explicit-workload jobs, the pooled reports are identical to
  the pickle-copy pool's, and no ``/dev/shm`` segment outlives the run;
* scale: the 10^7-peer kernel run (``REPRO_BENCH_SCALE_PEERS``
  overrides; ``REPRO_BENCH_XL=1`` adds a 10^8 slim smoke) keeps its
  wide-precision traced allocation peak <= 8 GiB, ``slim`` precision
  <= 0.7x the wide peak, and the slim hit rate within 5% of wide.

The comparison/gate scenarios additionally record the process peak RSS
(``peak_rss_bytes``) — a process-lifetime high-water mark, so each
record reads "peak so far", giving the 10^7-peer memory work a baseline
— and the whole run's calibration time and cache statistics land in the
``telemetry_record``. ``benchmarks/record.py`` compacts the payload into
one ``BENCH_history.jsonl`` line; ``benchmarks/dashboard.py`` renders
the committed history as a static trend dashboard.

Standalone::

    PYTHONPATH=src python benchmarks/bench_fastsim.py
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import obs
from repro.experiments.scenario import paper_scenario
from repro.fastsim import (
    calibrate_costs,
    calibration_cache_stats,
    compare_engines,
    compare_engines_churn,
    compare_engines_staleness,
    run_fastsim,
)
from repro.pdht.config import PdhtConfig

#: Rounds simulated per configuration (kept short: the event engine pays
#: ~0.5-5 ms per query at these scales).
DURATION = 60.0

JSON_PATH = Path(__file__).parent / "bench_fastsim.json"


def _scenario(num_peers: int):
    return paper_scenario().scaled(num_peers / 20_000).with_query_freq(1 / 30)


def _compare_at(num_peers: int, walk_probes: int) -> dict[str, object]:
    params = _scenario(num_peers)
    config = PdhtConfig.from_scenario(params)
    costs = calibrate_costs(
        params, config, lookup_probes=256, flood_probes=64,
        walk_probes=walk_probes,
    )
    agreement = compare_engines(
        params, config=config, duration=DURATION, seeds=(0,), costs=costs
    )
    return {
        "num_peers": params.num_peers,
        "n_keys": params.n_keys,
        "duration_rounds": DURATION,
        "event_seconds": agreement.event_seconds,
        "vectorized_seconds": agreement.fast_seconds,
        "speedup": agreement.speedup,
        "event_hit_rate": agreement.event_hit_rates[0],
        "vectorized_hit_rate": agreement.fast_hit_rates[0],
        "hit_rate_rel_diff": agreement.hit_rate_rel_diff,
        "cost_rel_diff": agreement.cost_rel_diff,
        "summary": agreement.summary(),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


def _vectorized_only_at(num_peers: int) -> dict[str, object]:
    params = _scenario(num_peers)
    started = time.perf_counter()
    report = run_fastsim(params, duration=DURATION, seed=0)
    elapsed = time.perf_counter() - started
    return {
        "num_peers": params.num_peers,
        "n_keys": params.n_keys,
        "duration_rounds": DURATION,
        "event_seconds": None,  # intractable at this scale
        "vectorized_seconds": elapsed,
        "vectorized_hit_rate": report.hit_rate,
        "simulated_queries_per_second": report.simulated_queries_per_second,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


#: Cross-engine agreement tolerance the scheduled job enforces.
TOLERANCE = 0.05


def _churn_record(availability: float) -> dict[str, object]:
    """Churn agreement at 400 peers (walk TTL bounded so the event
    engine's exhausted walks stay affordable inside the job budget)."""
    params = _scenario(400)
    config = replace(PdhtConfig.from_scenario(params), walk_ttl=96)
    agreement = compare_engines_churn(
        params, availability, config=config, duration=300.0, seeds=(0, 1, 2)
    )
    return {
        "scenario": "churn",
        "availability": availability,
        "num_peers": params.num_peers,
        "duration_rounds": 300.0,
        "hit_rate_rel_diff": agreement.hit_rate_rel_diff,
        "cost_rel_diff": agreement.cost_rel_diff,
        "summary": agreement.summary(),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


#: A non-stationary workload may cost at most this factor of the
#: stationary kernel wall-clock: GradualDrift splits the batched query
#: draw into per-segment draw_into calls, and this gate keeps that
#: segmentation from regressing into a per-round loop.
WORKLOADS_SLOWDOWN_CEILING = 1.2


def _workloads_record() -> dict[str, object]:
    """Segment-batched draw path under GradualDrift vs stationary.

    Runs the 100k-peer scenario through the kernel with the stationary
    stream and with a GradualDrift model (a mapping boundary every 25
    rounds — 24 segments over the run). Wall-clock is the kernel's own
    ``elapsed_seconds`` (construction and cost resolution excluded),
    best of two runs per workload to damp runner noise.
    """
    import numpy as np

    from repro.analysis.zipf import ZipfDistribution
    from repro.experiments.scenario import fastsim_scenario
    from repro.workloads import GradualDrift

    scenario = fastsim_scenario(scale=5.0)
    duration = 600.0
    zipf = ZipfDistribution(scenario.n_keys, scenario.alpha)

    def best_of_two(workload_factory):
        seconds = []
        hit_rate = 0.0
        for attempt in range(2):
            report = run_fastsim(
                scenario, duration=duration, seed=0,
                workload=workload_factory(),
            )
            seconds.append(report.elapsed_seconds)
            hit_rate = report.hit_rate
        return min(seconds), hit_rate

    stationary_seconds, stationary_hit = best_of_two(lambda: None)
    drift = GradualDrift(period=duration / 24)
    drift_seconds, drift_hit = best_of_two(
        lambda: drift.build(
            zipf, np.random.default_rng(np.random.SeedSequence(0))
        )
    )
    return {
        "scenario": "workloads",
        "num_peers": scenario.num_peers,
        "duration_rounds": duration,
        "stationary_seconds": stationary_seconds,
        "drift_seconds": drift_seconds,
        "slowdown": (
            drift_seconds / stationary_seconds
            if stationary_seconds > 0
            else float("inf")
        ),
        "stationary_hit_rate": stationary_hit,
        "drift_hit_rate": drift_hit,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


#: The jobs scenario's pool size and the speedup it must reach on a
#: runner with at least that many CPUs.
JOBS_WORKERS = 4
JOBS_SPEEDUP_FLOOR = 2.5


def _jobs_record() -> dict[str, object]:
    """Parallel sweep: the default grid, sequential vs a 4-worker pool.

    Runs the ``GridAxes()`` default 18-cell grid at the scaled-up 100k-peer
    scenario (per-op costs are analytical there, so workers spawn without
    rebuilding any calibration substrate — the parent resolves them once
    and ships them in the job specs). Cell values must be identical
    between the two runs; the speedup gate only binds on runners with
    >= JOBS_WORKERS CPUs, but the record always lands in the JSON so a
    starved runner is visible rather than silently green.
    """
    import os

    from repro.experiments.execution import Execution
    from repro.experiments.scenario import fastsim_scenario
    from repro.experiments.sweeps import GridAxes, sweep_grid

    scenario = fastsim_scenario(scale=5.0)
    axes = GridAxes()
    started = time.perf_counter()
    sequential = sweep_grid(axes, scenario=scenario, duration=960.0)
    sequential_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel = sweep_grid(
        axes, scenario=scenario, duration=960.0,
        execution=Execution("vectorized", jobs=JOBS_WORKERS),
    )
    parallel_seconds = time.perf_counter() - started
    return {
        "scenario": "jobs",
        "num_peers": scenario.num_peers,
        "cells": axes.size,
        "duration_rounds": 960.0,
        "cpu_count": os.cpu_count(),
        "workers": JOBS_WORKERS,
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": (
            sequential_seconds / parallel_seconds
            if parallel_seconds > 0
            else float("inf")
        ),
        "cells_identical": sequential.series == parallel.series,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


def _store_record() -> dict[str, object]:
    """Artifact store: cold vs resumed sweep, warm-start calibration.

    Runs a 6-cell grid at the 100k-peer scenario twice against a
    throwaway store: the first pass computes and saves every cell, the
    second must load all of them (``store_hit_rate`` 1.0) and finish in
    a fraction of the cold wall-clock (``resume_seconds``). Separately,
    a calibrated 400-peer scenario probes once through the store, the
    in-process L1 is cleared (what a fresh worker process sees), and the
    re-resolution is measured — a store hit never enters a
    ``calibrate.*`` span, so the warm calibration time must be zero.
    """
    import tempfile

    from repro.experiments.scenario import fastsim_scenario
    from repro.experiments.sweeps import GridAxes, sweep_grid
    from repro.fastsim.compare import _costs_for_cached, costs_for
    from repro.store import Store, using_store

    scenario = fastsim_scenario(scale=5.0)
    axes = GridAxes(
        ttl_factors=(0.5, 1.0, 2.0),
        alphas=(0.8, 1.2),
        query_freqs=(1 / 30,),
        availabilities=(1.0,),
    )
    duration = 480.0
    with tempfile.TemporaryDirectory() as tmp:
        with Store(Path(tmp) / "bench.sqlite") as store:
            with using_store(store):
                started = time.perf_counter()
                cold = sweep_grid(axes, scenario=scenario, duration=duration)
                cold_seconds = time.perf_counter() - started
                before = dict(store.stats.get("sweep_cell", {}))
                started = time.perf_counter()
                warm = sweep_grid(axes, scenario=scenario, duration=duration)
                resume_seconds = time.perf_counter() - started
                after = store.stats.get("sweep_cell", {})
                hits = after.get("hits", 0) - before.get("hits", 0)
                misses = after.get("misses", 0) - before.get("misses", 0)

                # Warm-start calibration: probe once (saved to disk), drop
                # the L1 as a fresh process would, re-resolve from the
                # store under a private collector.
                params = _scenario(400)
                config = PdhtConfig.from_scenario(params)
                _costs_for_cached.cache_clear()
                started = time.perf_counter()
                cold_costs = costs_for(params, config, params.num_peers)
                cold_calibration_seconds = time.perf_counter() - started
                _costs_for_cached.cache_clear()
                collector = obs.Collector()
                previous = obs.set_collector(collector)
                was_enabled = obs.enabled()
                obs.enable()
                try:
                    warm_costs = costs_for(params, config, params.num_peers)
                finally:
                    if not was_enabled:
                        obs.disable()
                    obs.set_collector(previous)
                warm_calibration_seconds = sum(
                    data["seconds"]
                    for path, data in collector.snapshot()["spans"].items()
                    if path.startswith("calibrate.")
                )
    return {
        "scenario": "store",
        "num_peers": scenario.num_peers,
        "cells": axes.size,
        "duration_rounds": duration,
        "cold_seconds": cold_seconds,
        "resume_seconds": resume_seconds,
        "store_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "cells_identical": warm.series == cold.series
        and warm.x_values == cold.x_values,
        "cold_calibration_seconds": cold_calibration_seconds,
        "warm_calibration_seconds": warm_calibration_seconds,
        "calibration_identical": warm_costs == cold_costs,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


def _staleness_record() -> dict[str, object]:
    params = _scenario(400)
    agreement = compare_engines_staleness(
        params, duration=240.0, refresh_period=80.0, seeds=(0, 1)
    )
    return {
        "scenario": "staleness",
        "num_peers": params.num_peers,
        "duration_rounds": 240.0,
        "hit_rate_rel_diff": agreement.hit_rate_rel_diff,
        "staleness_rel_diff": agreement.staleness_rel_diff,
        "summary": agreement.summary(),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


#: Telemetry-enabled wall-clock may exceed the disabled run by at most
#: this factor at the 100k-peer kernel scenario.
OBS_OVERHEAD_CEILING = 1.02


def _obs_overhead_record() -> dict[str, object]:
    """Telemetry cost and result parity at the 100k-peer kernel scenario.

    Runs the same seeded kernel best-of-3 with collection disabled and
    best-of-3 with it enabled (into a throwaway collector, so the
    benchmark's own profile stays clean). Wall-clock is the kernel's own
    ``elapsed_seconds``; the reports must be bit-identical apart from
    wall-clock — telemetry never touches an RNG stream.
    """
    from repro.experiments.scenario import fastsim_scenario

    scenario = fastsim_scenario(scale=5.0)
    duration = 1200.0
    was_enabled = obs.enabled()

    def best_of_three(enabled: bool):
        seconds = []
        report = None
        for _ in range(3):
            previous = obs.set_collector(obs.Collector())
            if enabled:
                obs.enable()
            else:
                obs.disable()
            try:
                report = run_fastsim(scenario, duration=duration, seed=0)
            finally:
                obs.disable()
                obs.set_collector(previous)
            seconds.append(report.elapsed_seconds)
        return min(seconds), report

    try:
        disabled_seconds, disabled_report = best_of_three(False)
        enabled_seconds, enabled_report = best_of_three(True)
    finally:
        if was_enabled:
            obs.enable()
    plain = disabled_report.to_dict()
    telemetered = enabled_report.to_dict()
    plain.pop("elapsed_seconds")
    telemetered.pop("elapsed_seconds")
    bit_identical = (
        plain == telemetered
        and disabled_report.hit_rate_series == enabled_report.hit_rate_series
        and disabled_report.index_size_series
        == enabled_report.index_size_series
    )
    return {
        "scenario": "obs_overhead",
        "num_peers": scenario.num_peers,
        "duration_rounds": duration,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "overhead": (
            enabled_seconds / disabled_seconds
            if disabled_seconds > 0
            else float("inf")
        ),
        "bit_identical": bit_identical,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


#: Recorder-enabled wall-clock may exceed the plain-telemetry run by at
#: most this factor at the 100k-peer kernel scenario: streaming events
#: to a JSONL sink must cost no more over enabled collection than
#: enabled collection costs over disabled.
LIVE_OVERHEAD_CEILING = 1.02


def _live_overhead_record() -> dict[str, object]:
    """Flight-recorder cost and result parity at the 100k-peer scenario.

    Same protocol as :func:`_obs_overhead_record`, one layer up: best-of-3
    with collection enabled but no event sink, against best-of-3 with
    collection enabled *and* a :class:`JsonlSink` recording to a
    tempfile — the full live pipeline (span/counter events, kernel round
    heartbeats, per-event flush). Reports must stay bit-identical: the
    recorder only observes, never touches an RNG stream.
    """
    import tempfile
    from pathlib import Path

    from repro.obs import events
    from repro.experiments.scenario import fastsim_scenario

    scenario = fastsim_scenario(scale=5.0)
    duration = 1200.0
    was_enabled = obs.enabled()

    def best_of_three(record_dir: str | None):
        seconds = []
        report = None
        event_count = 0
        for attempt in range(3):
            previous = obs.set_collector(obs.Collector())
            sink = None
            if record_dir is not None:
                sink = events.JsonlSink(
                    Path(record_dir) / f"events-{attempt}.jsonl"
                )
            previous_sink = events.set_sink(sink)
            obs.enable()
            try:
                report = run_fastsim(scenario, duration=duration, seed=0)
            finally:
                obs.disable()
                obs.set_collector(previous)
                events.set_sink(previous_sink)
                if sink is not None:
                    sink.close()
                    event_count = sum(
                        1 for _ in open(sink.path, encoding="utf-8")
                    )
            seconds.append(report.elapsed_seconds)
        return min(seconds), report, event_count

    try:
        with tempfile.TemporaryDirectory() as record_dir:
            plain_seconds, plain_report, _ = best_of_three(None)
            recorded_seconds, recorded_report, event_count = best_of_three(
                record_dir
            )
    finally:
        if was_enabled:
            obs.enable()
    plain = plain_report.to_dict()
    recorded = recorded_report.to_dict()
    plain.pop("elapsed_seconds")
    recorded.pop("elapsed_seconds")
    bit_identical = (
        plain == recorded
        and plain_report.hit_rate_series == recorded_report.hit_rate_series
        and plain_report.index_size_series
        == recorded_report.index_size_series
    )
    return {
        "scenario": "live_overhead",
        "num_peers": scenario.num_peers,
        "duration_rounds": duration,
        "plain_seconds": plain_seconds,
        "recorded_seconds": recorded_seconds,
        "overhead": (
            recorded_seconds / plain_seconds
            if plain_seconds > 0
            else float("inf")
        ),
        "bit_identical": bit_identical,
        "events": event_count,
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


#: Default peer count of the standing scale scenario (override with
#: ``REPRO_BENCH_SCALE_PEERS`` for quick local runs); ``REPRO_BENCH_XL=1``
#: adds a short 10^8-peer slim-precision smoke on top.
SCALE_PEERS = 10_000_000
SCALE_XL_PEERS = 100_000_000
#: Rounds simulated at the scale scenario: enough for the TTL index to
#: reach steady churn while keeping the weekly job affordable.
SCALE_DURATION = 24.0
#: The 10^7-peer wide-precision run must fit a 16 GB runner: traced
#: allocation peak at most 8 GiB (state + one draw block, no O(queries)
#: transients).
SCALE_PEAK_CEILING = 8 * 2**30
#: ``slim`` must actually buy memory: traced peak at most this fraction
#: of the wide run's. State arrays halve (float64/int64 ->
#: float32/uint32) but the Zipf weight/cumulative tables and the int64
#: draw pipeline are precision-independent, so the whole-run peak lands
#: around 0.75x — the ceiling guards that from regressing, it does not
#: promise a full 2x.
SLIM_MEMORY_RATIO_CEILING = 0.8
#: Shared-memory staging must shrink the per-worker pickle payload by at
#: least this factor vs shipping the arrays by copy.
SHM_PAYLOAD_RATIO_FLOOR = 3.0


def _traced_kernel_run(scenario, duration: float, precision: str):
    """One seeded kernel run under tracemalloc: ``(report, peak_bytes)``.

    The Zipf weight cache is cleared first so every mode is charged the
    same table build; the traced peak (numpy routes allocations through
    the tracemalloc hooks) isolates this run from the process-lifetime
    RSS high-water mark the other records share.
    """
    import gc
    import tracemalloc

    from repro.analysis.zipf import _rank_weights

    _rank_weights.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        report = run_fastsim(
            scenario, duration=duration, seed=0, precision=precision
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def _scale_record() -> dict[str, object]:
    """The 10^7-peer standing stress scenario, wide vs slim precision.

    Runs the same seeded kernel configuration once per dtype policy and
    records wall-clock, simulated queries/sec and the traced allocation
    peak. Gates: the wide run fits ``SCALE_PEAK_CEILING``, slim stays
    under ``SLIM_MEMORY_RATIO_CEILING`` of the wide peak, and the slim
    hit rate agrees within ``TOLERANCE``. ``REPRO_BENCH_XL=1`` appends a
    short 10^8-peer slim smoke (recorded, not gated — it needs a large
    runner).
    """
    import os

    from repro.experiments.scenario import fastsim_scenario

    peers = int(os.environ.get("REPRO_BENCH_SCALE_PEERS", SCALE_PEERS))
    scenario = fastsim_scenario(scale=peers / 20_000)
    modes: dict[str, dict[str, object]] = {}
    for precision in ("wide", "slim"):
        report, peak = _traced_kernel_run(
            scenario, SCALE_DURATION, precision
        )
        modes[precision] = {
            "seconds": report.elapsed_seconds,
            "traced_peak_bytes": peak,
            "hit_rate": report.hit_rate,
            "queries_per_second": report.simulated_queries_per_second,
        }
    wide, slim = modes["wide"], modes["slim"]
    record = {
        "scenario": "scale",
        "num_peers": scenario.num_peers,
        "n_keys": scenario.n_keys,
        "duration_rounds": SCALE_DURATION,
        "wide_seconds": wide["seconds"],
        "wide_traced_peak_bytes": wide["traced_peak_bytes"],
        "wide_hit_rate": wide["hit_rate"],
        "wide_queries_per_second": wide["queries_per_second"],
        "slim_seconds": slim["seconds"],
        "slim_traced_peak_bytes": slim["traced_peak_bytes"],
        "slim_hit_rate": slim["hit_rate"],
        "slim_queries_per_second": slim["queries_per_second"],
        "slim_wide_memory_ratio": (
            slim["traced_peak_bytes"] / wide["traced_peak_bytes"]
            if wide["traced_peak_bytes"] > 0
            else float("inf")
        ),
        "hit_rate_rel_diff": (
            abs(slim["hit_rate"] - wide["hit_rate"]) / wide["hit_rate"]
            if wide["hit_rate"] > 0
            else float("inf")
        ),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }
    if os.environ.get("REPRO_BENCH_XL"):
        xl_scenario = fastsim_scenario(scale=SCALE_XL_PEERS / 20_000)
        xl_report, xl_peak = _traced_kernel_run(xl_scenario, 6.0, "slim")
        record["xl"] = {
            "num_peers": xl_scenario.num_peers,
            "duration_rounds": 6.0,
            "slim_seconds": xl_report.elapsed_seconds,
            "slim_traced_peak_bytes": xl_peak,
            "slim_hit_rate": xl_report.hit_rate,
        }
    return record


def _shm_record() -> dict[str, object]:
    """Shared-memory fan-out: payload reduction, parity, clean teardown.

    Builds four per-strategy jobs carrying explicit batch workloads (the
    worst case for pickling: each workload holds O(n_keys) Zipf tables),
    measures the per-worker pickle payload with and without shared-memory
    staging, and runs the same jobs through a plain pool and a
    shared-memory pool. Gates: payload shrinks by at least
    ``SHM_PAYLOAD_RATIO_FLOOR``; reports are identical apart from
    wall-clock; no ``/dev/shm`` segment survives the run.
    """
    import pickle

    from repro.experiments.scenario import fastsim_scenario
    from repro.fastsim import (
        FastSimJob,
        ShmArena,
        default_batch_workload,
        leaked_segments,
        pack_jobs,
        run_many,
    )
    from repro.fastsim.parallel import resolve_jobs
    from repro.pdht.strategies import STRATEGY_CLASSES

    scenario = fastsim_scenario(scale=5.0)
    duration = 240.0

    def build_jobs() -> list:
        # Fresh jobs per run: batch workloads carry RNG state, so a job
        # is single-use (run_many would otherwise advance the streams).
        config = PdhtConfig.from_scenario(scenario)
        return [
            FastSimJob(
                params=scenario,
                strategy=name,
                seed=0,
                duration=duration,
                config=config,
                workload=default_batch_workload(scenario, 0),
            )
            for name in STRATEGY_CLASSES
        ]

    resolved = resolve_jobs(build_jobs())
    full_bytes = sum(len(pickle.dumps(job)) for job in resolved)
    with ShmArena() as arena:
        packed = pack_jobs(resolved, arena)
        packed_bytes = sum(len(pickle.dumps(job)) for job in packed)
        arena_bytes = arena.total_bytes
        segments = len(arena.segment_names)

    started = time.perf_counter()
    plain_reports = run_many(build_jobs(), workers=2)
    plain_seconds = time.perf_counter() - started
    started = time.perf_counter()
    shared_reports = run_many(build_jobs(), workers=2, shared_memory=True)
    shared_seconds = time.perf_counter() - started

    def comparable(report) -> dict[str, object]:
        payload = report.to_dict()
        payload.pop("elapsed_seconds")  # wall-clock, legitimately differs
        return payload

    reports_identical = [comparable(r) for r in plain_reports] == [
        comparable(r) for r in shared_reports
    ]
    return {
        "scenario": "shm",
        "num_peers": scenario.num_peers,
        "n_keys": scenario.n_keys,
        "duration_rounds": duration,
        "jobs": len(resolved),
        "full_payload_bytes": full_bytes,
        "packed_payload_bytes": packed_bytes,
        "payload_ratio": (
            full_bytes / packed_bytes if packed_bytes > 0 else float("inf")
        ),
        "arena_bytes": arena_bytes,
        "arena_segments": segments,
        "plain_seconds": plain_seconds,
        "shared_seconds": shared_seconds,
        "reports_identical": reports_identical,
        "leaked_segments": leaked_segments(),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }


def enforce(payload: dict[str, object]) -> list[str]:
    """All acceptance gates; returns the list of violations (empty = ok)."""
    violations: list[str] = []
    records = payload["records"]
    at_10k = records[1]
    if at_10k["speedup"] < 10.0:
        violations.append(f"speedup at 10k peers below 10x: {at_10k['speedup']:.1f}x")
    if at_10k["hit_rate_rel_diff"] > TOLERANCE:
        violations.append(
            f"10k-peer hit rate drift {100 * at_10k['hit_rate_rel_diff']:.2f}%"
        )
    if at_10k["cost_rel_diff"] > TOLERANCE:
        violations.append(
            f"10k-peer cost drift {100 * at_10k['cost_rel_diff']:.2f}%"
        )
    if records[2]["vectorized_seconds"] >= 60.0:
        violations.append("100k-peer vectorized run exceeded 60s")
    for record in payload["gate_records"]:
        for metric in ("hit_rate_rel_diff", "cost_rel_diff", "staleness_rel_diff"):
            drift = record.get(metric)
            if drift is not None and drift > TOLERANCE:
                violations.append(
                    f"{record['scenario']} {metric} drifted to "
                    f"{100 * drift:.2f}% (> {100 * TOLERANCE:.0f}%): "
                    f"{record['summary']}"
                )
    workloads = payload["workloads_record"]
    if workloads["slowdown"] > WORKLOADS_SLOWDOWN_CEILING:
        violations.append(
            f"GradualDrift kernel run {workloads['slowdown']:.2f}x the "
            f"stationary wall-clock (> {WORKLOADS_SLOWDOWN_CEILING}x): "
            "the segment-batched draw path regressed"
        )
    jobs = payload["jobs_record"]
    if not jobs["cells_identical"]:
        violations.append(
            "parallel sweep produced different cell values than the "
            "sequential run"
        )
    cpus = jobs["cpu_count"] or 1
    if cpus >= jobs["workers"] and jobs["speedup"] < JOBS_SPEEDUP_FLOOR:
        violations.append(
            f"jobs={jobs['workers']} sweep speedup below "
            f"{JOBS_SPEEDUP_FLOOR}x on a {cpus}-CPU runner: "
            f"{jobs['speedup']:.2f}x"
        )
    stored = payload["store_record"]
    if not stored["cells_identical"]:
        violations.append(
            "resumed sweep loaded different cell values than the cold run"
        )
    if not stored["calibration_identical"]:
        violations.append(
            "store-loaded calibration diverged from the probed one"
        )
    if stored["store_hit_rate"] < 1.0:
        violations.append(
            f"resumed sweep recomputed cells: store hit rate "
            f"{stored['store_hit_rate']:.2f} (expected 1.0)"
        )
    if stored["warm_calibration_seconds"] > 0.0:
        violations.append(
            f"warm-start calibration spent "
            f"{stored['warm_calibration_seconds']:.3f}s inside "
            "calibrate.* spans (a store hit must never probe)"
        )
    scale = payload["scale_record"]
    if scale["wide_traced_peak_bytes"] > SCALE_PEAK_CEILING:
        violations.append(
            f"scale scenario ({scale['num_peers']} peers) traced peak "
            f"{scale['wide_traced_peak_bytes'] / 2**30:.2f} GiB exceeds "
            f"{SCALE_PEAK_CEILING / 2**30:.0f} GiB"
        )
    if scale["slim_wide_memory_ratio"] > SLIM_MEMORY_RATIO_CEILING:
        violations.append(
            f"slim precision peak {scale['slim_wide_memory_ratio']:.2f}x "
            f"the wide peak (> {SLIM_MEMORY_RATIO_CEILING}x): dtype "
            "slimming stopped paying for itself"
        )
    if scale["hit_rate_rel_diff"] > TOLERANCE:
        violations.append(
            f"slim-precision hit rate drifted "
            f"{100 * scale['hit_rate_rel_diff']:.2f}% from wide "
            f"(> {100 * TOLERANCE:.0f}%)"
        )
    shm = payload["shm_record"]
    if shm["payload_ratio"] < SHM_PAYLOAD_RATIO_FLOOR:
        violations.append(
            f"shared-memory pickle payload only "
            f"{shm['payload_ratio']:.1f}x smaller than the copy path "
            f"(< {SHM_PAYLOAD_RATIO_FLOOR}x)"
        )
    if not shm["reports_identical"]:
        violations.append(
            "shared-memory pool produced different reports than the "
            "pickle-copy pool (staging must be value-transparent)"
        )
    if shm["leaked_segments"]:
        violations.append(
            f"shared-memory segments leaked in /dev/shm: "
            f"{shm['leaked_segments']}"
        )
    observed = payload["obs_record"]
    if not observed["bit_identical"]:
        violations.append(
            "telemetry-enabled kernel run diverged from the disabled run "
            "(collection must never touch an RNG stream)"
        )
    if observed["overhead"] > OBS_OVERHEAD_CEILING:
        violations.append(
            f"telemetry overhead {observed['overhead']:.3f}x the disabled "
            f"wall-clock (> {OBS_OVERHEAD_CEILING}x): "
            f"{observed['disabled_seconds']:.3f}s -> "
            f"{observed['enabled_seconds']:.3f}s"
        )
    live = payload["live_record"]
    if not live["bit_identical"]:
        violations.append(
            "flight-recorder-enabled kernel run diverged from the plain "
            "telemetry run (the recorder must never touch an RNG stream)"
        )
    if live["overhead"] > LIVE_OVERHEAD_CEILING:
        violations.append(
            f"flight-recorder overhead {live['overhead']:.3f}x the plain "
            f"telemetry wall-clock (> {LIVE_OVERHEAD_CEILING}x): "
            f"{live['plain_seconds']:.3f}s -> "
            f"{live['recorded_seconds']:.3f}s"
        )
    return violations


def _render(records: list[dict[str, object]]) -> str:
    lines = ["peers    event [s]  vectorized [s]  speedup   hit-rate diff"]
    for r in records:
        event = r["event_seconds"]
        event_s = f"{event:9.2f}" if event is not None else "        -"
        speedup = f"{r['speedup']:7.0f}x" if event is not None else "       -"
        diff = (
            f"{100 * r['hit_rate_rel_diff']:.2f}%"
            if "hit_rate_rel_diff" in r
            else "-"
        )
        lines.append(
            f"{r['num_peers']:<8d} {event_s}  {r['vectorized_seconds']:14.3f}"
            f"  {speedup}   {diff}"
        )
    return "\n".join(lines)


def run_benchmark() -> dict[str, object]:
    # The overhead records measure their own enabled/disabled (and
    # recorded/plain) pairings, so they run first, before telemetry is
    # switched on for the rest of the benchmark (whose merged profile
    # feeds the telemetry_record).
    obs_record = _obs_overhead_record()
    live_record = _live_overhead_record()
    was_enabled = obs.enabled()
    collector = obs.Collector()
    previous = obs.set_collector(collector)
    obs.enable()
    try:
        records = [
            _compare_at(1_000, walk_probes=256),
            _compare_at(10_000, walk_probes=128),
            _vectorized_only_at(100_000),
        ]
        gate_records = [
            _churn_record(0.9),
            _churn_record(0.5),
            _staleness_record(),
        ]
        workloads_record = _workloads_record()
        jobs_record = _jobs_record()
        store_record = _store_record()
        shm_record = _shm_record()
        scale_record = _scale_record()
    finally:
        if not was_enabled:
            obs.disable()
        obs.set_collector(previous)
    snapshot = collector.snapshot()
    calibration_seconds = sum(
        data["seconds"]
        for path, data in snapshot["spans"].items()
        if "/" not in path and path.startswith("calibrate.")
    )
    telemetry_record = {
        "calibration_seconds": calibration_seconds,
        "cache_stats": calibration_cache_stats(),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }
    payload = {
        "benchmark": "fastsim_speedup",
        "duration_rounds": DURATION,
        "records": records,
        "gate_records": gate_records,
        "workloads_record": workloads_record,
        "jobs_record": jobs_record,
        "store_record": store_record,
        "shm_record": shm_record,
        "scale_record": scale_record,
        "obs_record": obs_record,
        "live_record": live_record,
        "telemetry_record": telemetry_record,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_fastsim_speedup(once):
    from benchmarks.conftest import emit

    payload = once(run_benchmark)
    records = payload["records"]
    emit(
        "fastsim - vectorized kernel vs event engine",
        _render(records) + "\n\nJSON record: " + str(JSON_PATH),
    )
    print(json.dumps(payload, indent=2))
    assert records[1]["num_peers"] == 10_000
    # Every acceptance gate (speedup, no-churn agreement, churn and
    # staleness agreement) enforced, not just recorded.
    assert enforce(payload) == []


if __name__ == "__main__":
    payload = run_benchmark()
    print(_render(payload["records"]))
    for record in payload["gate_records"]:
        print(f"{record['scenario']}: {record['summary']}")
    workloads = payload["workloads_record"]
    print(
        f"workloads: GradualDrift at {workloads['num_peers']} peers "
        f"{workloads['slowdown']:.2f}x stationary wall-clock "
        f"({workloads['stationary_seconds']:.2f}s -> "
        f"{workloads['drift_seconds']:.2f}s)"
    )
    jobs = payload["jobs_record"]
    print(
        f"jobs: {jobs['cells']}-cell sweep at {jobs['num_peers']} peers, "
        f"jobs={jobs['workers']} vs 1: {jobs['speedup']:.2f}x "
        f"({jobs['sequential_seconds']:.1f}s -> "
        f"{jobs['parallel_seconds']:.1f}s, {jobs['cpu_count']} CPUs)"
    )
    stored = payload["store_record"]
    print(
        f"store: {stored['cells']}-cell sweep resumed in "
        f"{stored['resume_seconds']:.2f}s vs {stored['cold_seconds']:.2f}s "
        f"cold (hit rate {stored['store_hit_rate']:.2f}), warm calibration "
        f"{stored['warm_calibration_seconds']:.3f}s vs "
        f"{stored['cold_calibration_seconds']:.3f}s"
    )
    shm = payload["shm_record"]
    print(
        f"shm: payload {shm['full_payload_bytes']:,} B -> "
        f"{shm['packed_payload_bytes']:,} B ({shm['payload_ratio']:.0f}x), "
        f"arena {shm['arena_bytes'] / 2**20:.1f} MiB in "
        f"{shm['arena_segments']} segments, identical="
        f"{shm['reports_identical']}, leaked={shm['leaked_segments']}"
    )
    scale = payload["scale_record"]
    print(
        f"scale: {scale['num_peers']:,} peers x {scale['duration_rounds']:g} "
        f"rounds: wide {scale['wide_seconds']:.1f}s / "
        f"{scale['wide_traced_peak_bytes'] / 2**30:.2f} GiB peak, slim "
        f"{scale['slim_seconds']:.1f}s / "
        f"{scale['slim_traced_peak_bytes'] / 2**30:.2f} GiB peak "
        f"({scale['slim_wide_memory_ratio']:.2f}x), hit-rate diff "
        f"{100 * scale['hit_rate_rel_diff']:.2f}%"
    )
    observed = payload["obs_record"]
    print(
        f"telemetry: {observed['overhead']:.3f}x overhead at "
        f"{observed['num_peers']} peers "
        f"({observed['disabled_seconds']:.3f}s -> "
        f"{observed['enabled_seconds']:.3f}s), bit-identical="
        f"{observed['bit_identical']}"
    )
    telemetry = payload["telemetry_record"]
    print(
        f"telemetry: calibration {telemetry['calibration_seconds']:.2f}s, "
        f"peak RSS {telemetry['peak_rss_bytes'] / 2**20:.0f} MiB"
    )
    print(json.dumps(payload, indent=2))
    violations = enforce(payload)
    if violations:
        for violation in violations:
            print(f"DRIFT: {violation}", file=sys.stderr)
        sys.exit(1)
