"""What a CLI call loads: importing the runner loads no numpy, no kernel
and no store; the kernel and sweep path never import the event substrate
or the process pool; an event run never loads the kernel; a warm sweep is
one store lookup and loads no numpy.
(That no module below ``repro.experiments`` imports it, even lazily, is
the static check RL113 in ``tests/test_invariants.py``.)

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

#: The vectorized engine's modules: an event run uses none of them.
KERNEL = (
    "repro.fastsim.parallel",
    "repro.fastsim.kernel",
    "repro.fastsim.inputs",
    "repro.fastsim.churncosts",
    "repro.fastsim.metrics",
    "repro.fastsim.state",
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
    # The figure modules import the kernel inside the functions that
    # compute, so the registry loads without it.
    loaded = _loaded("import repro.experiments.runner")
    assert "repro.fastsim.kernel" not in loaded
    assert _under(loaded, SUBSTRATE) == []


def test_importing_the_runner_opens_no_store():
    # Nothing that decorates a probe with repro.store.memo.stored loads
    # with the registry; the store itself (and SQLite) waits for a run.
    loaded = _loaded("import repro.experiments.runner")
    assert "repro.store.memo" not in loaded
    assert _under(loaded, ("sqlite3", "_sqlite3", "repro.store.store")) == []


def test_importing_the_runner_loads_no_numpy_no_fastsim_and_no_sqlite():
    loaded = _loaded("import repro.experiments.runner")
    assert _under(loaded, ("numpy", "repro.fastsim", "sqlite3")) == []


def test_package_names_resolve_on_first_use():
    loaded = _loaded(
        "import repro\n"
        "assert 'repro.analysis' not in sys.modules\n"
        "assert repro.PdhtNetwork.__module__ == 'repro.pdht.network'"
    )
    assert "repro.pdht.network" in loaded


def test_an_event_run_loads_no_kernel():
    argv = ["sim", "--engine", "event", "--scale", "0.01", "--duration", "10",
            "--no-store", "--format", "json"]
    loaded = _loaded(
        "import contextlib, io\n"
        "from repro.experiments.runner import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert "repro.pdht.network" in loaded
    assert _under(loaded, KERNEL) == []


def test_a_warm_sweep_loads_neither_the_substrate_nor_numpy_random(tmp_path):
    # A warm sweep is one figure-row read: no cell traffic, and no numpy
    # at all (numpy.random included).
    store = str(tmp_path / "store.sqlite")
    argv = [*SWEEP, "--store", store, "--profile"]
    run = (
        "import contextlib, io\n"
        "from repro.experiments.runner import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({argv!r}) == 0\n"
        "result = json.loads(out.getvalue())\n"
        "counters = result['telemetry']['counters']\n"
        "assert counters.get('cache.store.replicate.hit', 0) == {hits}\n"
        "assert result['provenance']['source'] == {source!r}\n"
    )
    cold = _loaded(run.format(hits=0, source="computed"))
    assert "numpy.random" in cold
    warm = _loaded(
        run.format(hits=1, source="store")
        + "assert not [c for c in counters if 'sweep_cell' in c], counters\n"
    )
    assert _under(warm, (*SUBSTRATE, "numpy", "repro.fastsim")) == []
