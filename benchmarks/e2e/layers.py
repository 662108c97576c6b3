"""The traced in-process pass: which calls are wrapped, which metrics result.

Run as a script in a fresh interpreter by ``run.py``::

    python layers.py RESULT.json TRACED(0|1) -- <runner argv...>

It times ``import repro.experiments.runner``, optionally installs the
wrappers of :func:`install`, calls ``runner.main(argv)`` in-process
(stdout is the runner's own), restores the originals and writes the
per-layer metrics to ``RESULT.json`` and the spans to
``RESULT.spans.json``. With ``TRACED`` 0 nothing is wrapped; that pass is
the denominator of ``trace.overhead_ratio``.

Layer names are the repo's modules. Every per-layer metric of
``BENCHMARK.json`` except the ``trace.*`` / ``machine.*`` diagnostics and
``parallel.speedup`` (which need a second pass) is produced by
:func:`layer_metrics`; a workload that bypasses a layer reads 0 there.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import Patcher, SpanRecorder  # noqa: E402

__all__ = ["install", "layer_metrics", "LAYER_METRICS", "spans_file",
           "traced_main"]

#: name -> unit of every metric :func:`layer_metrics` returns.
LAYER_METRICS: dict[str, str] = {
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.export_s": "s",
    "experiments.export_bytes": "bytes",
    "analysis.plan_s": "s",
    "analysis.calls": "count",
    "compare.calibrate_costs_s": "s",
    "compare.calibrate_churn_s": "s",
    "compare.calibrate_calls": "count",
    "compare.cache_hits": "count",
    "compare.cache_misses": "count",
    "sim.engine_run_s": "s",
    "sim.events": "count",
    "pdht.strategy_run_s": "s",
    "pdht.query_s": "s",
    "pdht.queries": "count",
    "kernel.setup_s": "s",
    "kernel.run_s": "s",
    "kernel.runs": "count",
    "kernel.rounds": "count",
    "kernel.queries": "count",
    "kernel.queries_per_s": "1/s",
    "workload.draw_s": "s",
    "workload.draw_calls": "count",
    "parallel.run_many_s": "s",
    "parallel.resolve_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.overhead_s": "s",
    "store.open_s": "s",
    "store.load_s": "s",
    "store.loads": "count",
    "store.hits": "count",
    "store.save_s": "s",
    "store.saves": "count",
    "store.file_bytes": "bytes",
}

API_RUN = "api.run"
EXPORT = ("export.result_to_json", "ExperimentResult.save")
CALIBRATE = ("compare.calibrate_costs", "compare.calibrate_churn_costs")
COSTS_POLICY = ("compare.costs_for", "compare.calibrate_costs")
CHURN_POLICY = ("compare.churn_costs_for", "compare.calibrate_churn_costs")
ENGINE_RUN = "Simulation.run"
STRATEGY_RUN = "SimulatedStrategy.run"
QUERY = "PdhtNetwork.query"
KERNEL_SETUP = ("kernel.strategy_setup", "kernel.run_fastsim", "FastSimKernel")
KERNEL_RUN = "FastSimKernel.run"
DRAW = ("BatchWorkload.draw_rounds", "BatchWorkload.draw_round")
RUN_MANY = "parallel.run_many"
RESOLVE = "parallel.resolve_jobs"
STORE_OPEN = ("store.open_store", "Store")
STORE_LOAD = ("Store.load", "Store.load_report")
STORE_SAVE = "Store.save"


def _defining_classes(base: type, attr: str) -> Iterator[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    seen: set[type] = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if attr in cls.__dict__:
            yield cls


def install(patcher: Patcher) -> None:
    """Wrap the public calls into each layer (see the README table)."""
    import repro.workloads  # noqa: F401 - loads the BatchWorkload subclasses
    from repro.analysis import selection_model, threshold, zipf
    from repro.experiments import api, export
    from repro.fastsim import compare, kernel, parallel, workload
    from repro.pdht import config, network, strategies
    from repro.sim import engine
    from repro.store import store

    rec = patcher.recorder
    wrap = patcher.wrap

    # experiments
    wrap(api, "run", "experiments", API_RUN)
    wrap(
        export, "result_to_json", "experiments", EXPORT[0],
        after=lambda _t, _a, _k, text: rec.count(
            "experiments.export_bytes", len(text.encode("utf-8"))
        ),
    )
    wrap(api.ExperimentResult, "save", "experiments", EXPORT[1])

    # analysis (PdhtConfig.from_scenario lives in pdht.config but is the
    # planning step: it solves the index threshold for a scenario)
    wrap(config.PdhtConfig, "from_scenario", "analysis", "PdhtConfig.from_scenario")
    wrap(threshold, "solve_threshold", "analysis", "threshold.solve_threshold")
    wrap(selection_model.SelectionModel, "__init__", "analysis", "SelectionModel")
    wrap(selection_model.SelectionModel, "total_cost", "analysis",
         "SelectionModel.total_cost")
    wrap(zipf.ZipfDistribution, "__init__", "analysis", "ZipfDistribution")

    # fastsim.compare
    wrap(compare, "calibrate_costs", "compare", CALIBRATE[0])
    wrap(compare, "calibrate_churn_costs", "compare", CALIBRATE[1])
    wrap(compare, "costs_for", "compare", COSTS_POLICY[0])
    wrap(compare, "churn_costs_for", "compare", CHURN_POLICY[0])

    # sim + pdht
    def events_before(args: tuple, _kwargs: dict) -> int:
        return args[0].processed_events

    def events_after(before: int, args: tuple, _k: dict, _r: Any) -> None:
        rec.count("sim.events", args[0].processed_events - before)

    wrap(engine.Simulation, "run", "sim", ENGINE_RUN,
         before=events_before, after=events_after)
    for cls in _defining_classes(strategies.SimulatedStrategy, "run"):
        wrap(cls, "run", "pdht", STRATEGY_RUN)
    wrap(network.PdhtNetwork, "query", "pdht", QUERY)

    # fastsim.kernel: counts come from the reports, which exist for runs
    # in pool workers too (the parent's wrappers cannot see those runs).
    loaded_reports: dict[int, Any] = {}

    def tally(reports: list[Any]) -> None:
        for report in reports:
            rec.count("kernel.runs")
            rec.count("kernel.rounds", int(round(report.duration)))
            rec.count("kernel.queries", report.queries)
            rec.count("kernel.busy_s", report.elapsed_seconds)

    def kernel_run_after(_t: Any, _a: tuple, _k: dict, report: Any) -> None:
        if not rec.inside(RUN_MANY):  # run_many tallies its own reports
            tally([report])

    wrap(kernel, "strategy_setup", "kernel", KERNEL_SETUP[0])
    wrap(kernel, "run_fastsim", "kernel", KERNEL_SETUP[1])
    wrap(kernel.FastSimKernel, "__init__", "kernel", KERNEL_SETUP[2])
    wrap(kernel.FastSimKernel, "run", "kernel", KERNEL_RUN,
         after=kernel_run_after)

    # fastsim.workload
    for attr, label in zip(("draw_rounds", "draw_round"), DRAW):
        for cls in _defining_classes(workload.BatchWorkload, attr):
            wrap(cls, attr, "workload", label)

    # fastsim.parallel
    def run_many_after(_t: Any, args: tuple, kwargs: dict, reports: Any) -> None:
        executed = [r for r in reports if id(r) not in loaded_reports]
        tally(executed)
        busy = sum(r.elapsed_seconds for r in executed)
        requested = kwargs.get("workers", args[1] if len(args) > 1 else 1)
        workers = parallel.resolve_worker_count(requested)
        if len(executed) <= 1:
            workers = 1  # run_many does not start a pool for one job
        rec.count("parallel.worker_busy_s", busy)
        rec.count("parallel.busy_per_worker_s",
                  busy / max(1, min(workers, len(executed))))

    wrap(parallel, "run_many", "parallel", RUN_MANY, after=run_many_after)
    wrap(parallel, "resolve_jobs", "parallel", RESOLVE)
    wrap(parallel, "pack_jobs", "parallel", "parallel.pack_jobs")

    # store
    def load_after(_t: Any, _a: tuple, _k: dict, payload: Any) -> None:
        rec.count("store.loads")
        if payload is not None:
            rec.count("store.hits")

    def report_after(_t: Any, _a: tuple, _k: dict, report: Any) -> None:
        if report is not None:
            loaded_reports[id(report)] = report  # keeps the id from reuse

    wrap(store, "open_store", "store", STORE_OPEN[0])
    wrap(store.Store, "__init__", "store", STORE_OPEN[1],
         after=lambda _t, args, _k, _r: rec.note("store.path", args[0].path))
    wrap(store.Store, "load", "store", STORE_LOAD[0], after=load_after)
    wrap(store.Store, "load_report", "store", STORE_LOAD[1], after=report_after)
    wrap(store.Store, "save", "store", STORE_SAVE,
         after=lambda *_: rec.count("store.saves"))
    wrap(store.Store, "close", "store", "Store.close")


def layer_metrics(rec: SpanRecorder, cache_stats: dict[str, dict[str, int]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (names: LAYER_METRICS)."""
    counters = rec.counters
    run_many_s = rec.inclusive(RUN_MANY)
    busy = counters.get("kernel.busy_s", 0.0)
    file_bytes = 0
    for path in dict.fromkeys(rec.notes.get("store.path", [])):
        for suffix in ("", "-wal"):
            if os.path.exists(path + suffix):
                file_bytes += os.path.getsize(path + suffix)
    return {
        "experiments.run_s": rec.inclusive(API_RUN),
        "experiments.self_s": rec.self_time(API_RUN),
        "experiments.export_s": rec.inclusive(*EXPORT),
        "experiments.export_bytes": counters.get("experiments.export_bytes", 0),
        "analysis.plan_s": rec.layer_self_time().get("analysis", 0.0),
        "analysis.calls": sum(s.layer == "analysis" for s in rec.spans),
        "compare.calibrate_costs_s": rec.inclusive(*COSTS_POLICY),
        "compare.calibrate_churn_s": rec.inclusive(*CHURN_POLICY),
        "compare.calibrate_calls": rec.calls(*CALIBRATE),
        "compare.cache_hits": sum(c["hits"] for c in cache_stats.values()),
        "compare.cache_misses": sum(c["misses"] for c in cache_stats.values()),
        "sim.engine_run_s": rec.inclusive(ENGINE_RUN),
        "sim.events": counters.get("sim.events", 0),
        "pdht.strategy_run_s": rec.inclusive(STRATEGY_RUN),
        "pdht.query_s": rec.inclusive(QUERY),
        "pdht.queries": rec.calls(QUERY),
        "kernel.setup_s": rec.self_time(*KERNEL_SETUP),
        "kernel.run_s": rec.self_time(KERNEL_RUN),
        "kernel.runs": counters.get("kernel.runs", 0),
        "kernel.rounds": counters.get("kernel.rounds", 0),
        "kernel.queries": counters.get("kernel.queries", 0),
        "kernel.queries_per_s": (
            counters.get("kernel.queries", 0) / busy if busy > 0 else 0.0
        ),
        "workload.draw_s": rec.inclusive(*DRAW),
        "workload.draw_calls": rec.calls(*DRAW),
        "parallel.run_many_s": run_many_s,
        "parallel.resolve_s": rec.inclusive(RESOLVE),
        "parallel.worker_busy_s": counters.get("parallel.worker_busy_s", 0.0),
        "parallel.overhead_s": (
            run_many_s - counters.get("parallel.busy_per_worker_s", 0.0)
        ),
        "store.open_s": rec.inclusive(*STORE_OPEN),
        "store.load_s": rec.inclusive(*STORE_LOAD),
        "store.loads": counters.get("store.loads", 0),
        "store.hits": counters.get("store.hits", 0),
        "store.save_s": rec.inclusive(STORE_SAVE),
        "store.saves": counters.get("store.saves", 0),
        "store.file_bytes": file_bytes,
    }


def spans_file(result_path: Path) -> Path:
    """Where a traced pass writes its raw spans, beside its result."""
    return result_path.with_suffix(".spans.json")


def traced_main(result_path: Path, traced: bool, argv: list[str]) -> int:
    started = perf_counter()
    import repro.experiments.runner as runner
    from repro.fastsim.compare import calibration_cache_stats

    import_s = perf_counter() - started
    recorder = SpanRecorder()
    with Patcher(recorder, "repro") as patcher:
        if traced:
            install(patcher)
        main_started = perf_counter()
        code = runner.main(argv)
        main_s = perf_counter() - main_started
    result: dict[str, Any] = {
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
    }
    if traced:
        result["metrics"] = layer_metrics(recorder, calibration_cache_stats())
        result["layer_self_s"] = recorder.layer_self_time()
        spans_file(result_path).write_text(
            json.dumps(recorder.to_rows()), encoding="utf-8"
        )
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    split = sys.argv.index("--")
    result_file, traced_flag = sys.argv[1:split]
    sys.exit(
        traced_main(Path(result_file), traced_flag == "1", sys.argv[split + 1:])
    )
