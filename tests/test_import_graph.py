"""What a CLI call loads: the kernel and sweep path never import the
event substrate, the process pool or, on a warm sweep, ``numpy.random``;
importing the runner opens no store; the agreement harness loads no
experiment module.

Each check runs in a fresh interpreter, because what a test process has
loaded depends on the tests that ran before it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Modules (and packages, with everything under them) that only an event
#: run, a calibration probe or a process pool needs.
SUBSTRATE = (
    "repro.pdht.network",
    "repro.dht",
    "repro.unstructured",
    "repro.replication",
    "multiprocessing",
    "concurrent.futures.process",
)

_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""

#: Small enough to run in a second; above the calibration limit, so
#: every cell's costs are analytical.
SWEEP = ["sweep", "--scale", "0.3", "--duration", "20", "--format", "json"]


def _loaded(body: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", _LOADED.format(body=body)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def _under(modules: set[str], names) -> list[str]:
    return sorted(
        module for module in modules for name in names
        if module == name or module.startswith(name + ".")
    )


def test_importing_the_runner_loads_no_substrate_and_no_pool():
    loaded = _loaded("import repro.experiments.runner")
    assert "repro.fastsim.kernel" in loaded
    assert _under(loaded, SUBSTRATE) == []


def test_importing_the_runner_opens_no_store():
    # compare decorates its probes with repro.store.memo.stored when it
    # loads; the store itself (and SQLite) waits for the first call.
    loaded = _loaded("import repro.experiments.runner")
    assert "repro.store.memo" in loaded
    assert _under(loaded, ("sqlite3", "_sqlite3", "repro.store.store")) == []


def test_the_agreement_harness_loads_no_experiment_module():
    # compare builds the figures' Cells, but imports them only when a
    # comparison runs: the kernel's cost resolution imports compare.
    loaded = _loaded("import repro.fastsim.compare")
    assert _under(loaded, ("repro.experiments",)) == []


def test_package_names_resolve_on_first_use():
    loaded = _loaded(
        "import repro\n"
        "assert 'repro.analysis' not in sys.modules\n"
        "assert repro.PdhtNetwork.__module__ == 'repro.pdht.network'"
    )
    assert "repro.pdht.network" in loaded


def test_a_warm_sweep_loads_neither_the_substrate_nor_numpy_random(tmp_path):
    store = str(tmp_path / "store.sqlite")
    argv = [*SWEEP, "--store", store, "--profile"]
    run = (
        "import contextlib, io\n"
        "from repro.experiments.runner import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({argv!r}) == 0\n"
        "counters = json.loads(out.getvalue())['telemetry']['counters']\n"
        "assert counters.get('cache.store.sweep_cell.hit', 0) == {hits}\n"
    )
    _loaded(run.format(hits=0) + "assert 'numpy.random' in sys.modules\n")
    warm = _loaded(run.format(hits=18))
    assert _under(warm, (*SUBSTRATE, "numpy.random")) == []
