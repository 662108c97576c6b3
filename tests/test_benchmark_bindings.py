"""The benchmark's traced pass still finds every call it wraps.

``benchmarks/e2e/layers.py`` times each layer by wrapping program
functions and methods by name (``kernel.strategy_setup``,
``SimulatedStrategy.run``, ``FastSimKernel.__init__``, ...). A rename
breaks ``run.py --trace 1`` with a ``KeyError`` that no other tier-1 test
sees; a wrapped function that loses an import site silently drops out of
its layer. This installs the wrappers the way the traced pass does — in a
fresh interpreter, after importing the runner — and lists the replaced
bindings. A fresh interpreter because the packages re-export lazily: which
modules and package names are loaded depends on what ran before.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``(module, name)`` for a module-level binding and ``(module.Class,
#: name)`` for a class attribute: every binding of ``repro`` that
#: ``layers.install`` replaces, with ``repro.experiments.runner`` loaded
#: as in the traced pass.
WRAPPED_BINDINGS = {
    ("repro.analysis.selection_model", "solve_threshold"),
    ("repro.analysis.selection_model.SelectionModel", "__init__"),
    ("repro.analysis.selection_model.SelectionModel", "total_cost"),
    ("repro.analysis.strategies", "solve_threshold"),
    ("repro.analysis.strategies", "strategy_setup"),
    ("repro.analysis.threshold", "solve_threshold"),
    ("repro.analysis.zipf.ZipfDistribution", "__init__"),
    ("repro.experiments.api", "run"),
    ("repro.experiments.api", "run_experiment"),
    ("repro.experiments.api.ExperimentResult", "save"),
    ("repro.experiments.export", "result_to_json"),
    ("repro.experiments.runner", "run"),
    ("repro.fastsim.compare", "calibrate_churn_costs"),
    ("repro.fastsim.compare", "calibrate_costs"),
    ("repro.fastsim.compare", "churn_costs_for"),
    ("repro.fastsim.compare", "costs_for"),
    ("repro.fastsim.kernel", "run_fastsim"),
    ("repro.fastsim.kernel", "strategy_setup"),
    ("repro.fastsim.kernel.FastSimKernel", "__init__"),
    ("repro.fastsim.kernel.FastSimKernel", "run"),
    ("repro.fastsim.parallel", "pack_jobs"),
    ("repro.fastsim.parallel", "resolve_jobs"),
    ("repro.fastsim.parallel", "run_many"),
    ("repro.fastsim.parallel", "strategy_setup"),
    ("repro.fastsim.workload.BatchWorkload", "draw_round"),
    ("repro.fastsim.workload.BatchWorkload", "draw_rounds"),
    ("repro.pdht.config", "solve_threshold"),
    ("repro.pdht.config.PdhtConfig", "from_scenario"),
    ("repro.pdht.network.PdhtNetwork", "query"),
    ("repro.pdht.strategies", "strategy_setup"),
    ("repro.pdht.strategies.SimulatedStrategy", "run"),
    ("repro.sim.engine.Simulation", "run"),
    ("repro.store.store", "open_store"),
    ("repro.store.store.Store", "__init__"),
    ("repro.store.store.Store", "close"),
    ("repro.store.store.Store", "load"),
    ("repro.store.store.Store", "load_report"),
    ("repro.store.store.Store", "save"),
    ("repro.workloads.adapters.BatchTraceWorkload", "draw_round"),
    ("repro.workloads.adapters.BatchTraceWorkload", "draw_rounds"),
}

_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import layers, spans
import repro.experiments.runner

patcher = spans.Patcher(spans.SpanRecorder(), "repro")
try:
    layers.install(patcher)
    for holder, name, _ in patcher._undo:
        if isinstance(holder, type):
            holder = f"{holder.__module__}.{holder.__qualname__}"
        else:
            holder = holder.__name__
        print(holder, name)
finally:
    patcher.restore()
"""


def test_layers_install_wraps_every_binding():
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "benchmarks" / "e2e")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    wrapped = {tuple(line.split()) for line in done.stdout.splitlines()}
    assert wrapped == WRAPPED_BINDINGS
