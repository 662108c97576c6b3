"""The work counters of two seeded CLI runs, pinned ``==``.

An obs counter of a seeded run counts algorithmic work (kernel spans and
lanes, draw refinements, cache hits and misses, view rebuilds, routes and
walk hops) and repeats exactly from run to run, so it holds between
changes what a timing on a shared machine cannot. ``data/pinned_work.json``
holds, for each command of ``COMMANDS``, every counter of its ``--profile
--format json`` run but the collector's (``gc.*``), the process's
resource usage (``rusage.*``) and times (names ending ``_s``): what
``tools/pairs.py`` calls work. Each command runs in a fresh interpreter,
so no cache a test filled earlier is warm; both run at once.

The file was recorded at ``747f66f``. A change that alters work
re-records it (``PYTHONPATH=src python tests/obs/test_work_pin.py``)
and states each moved counter; the diff is its evidence.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).parent / "data" / "pinned_work.json"

_RUN = ["--seed", "0", "--no-store", "--profile", "--format", "json"]
#: The pinned runs: the benchmark's cold sweep in one process; a cold
#: vectorized ``sim``, whose costs are calibrated on an event substrate;
#: and the ``sim_event`` and ``churn_cold`` benchmark commands (the event
#: engine's four strategies, and churn calibration probes on it).
COMMANDS = {
    "sweep": ["sweep", "--scale", "8", "--jobs", "1", *_RUN],
    "sim": ["sim", "--engine", "vectorized", *_RUN],
    "sim_event": ["sim", "--engine", "event", "--duration", "150", *_RUN],
    "churn_cold": ["churn", "--engine", "vectorized", "--duration", "120",
                   "--scale", "0.02", *_RUN],
}


def is_work(name: str) -> bool:
    """A work counter: not the collector's, not resource usage, not a
    time (the rule of ``tools/pairs.py``)."""
    return not name.startswith(("gc.", "rusage.")) and not name.endswith("_s")


def measure() -> dict[str, dict[str, float]]:
    """Each command's work counters, from fresh interpreters run at once."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    running = {
        name: subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for name, argv in COMMANDS.items()
    }
    work = {}
    for name, process in running.items():
        out, err = process.communicate()
        assert process.returncode == 0, err
        counters = json.loads(out)["telemetry"]["counters"]
        work[name] = {
            counter: value for counter, value in sorted(counters.items())
            if is_work(counter)
        }
    return work


def test_work_counters_equal_the_pin():
    pinned = json.loads(DATA.read_text())
    assert pinned.keys() == COMMANDS.keys()
    for name, counters in measure().items():
        moved = {
            counter: (pinned[name].get(counter), counters.get(counter))
            for counter in pinned[name].keys() | counters.keys()
            if pinned[name].get(counter) != counters.get(counter)
        }
        assert not moved, f"{name}: (pinned, measured) {moved}"


if __name__ == "__main__":
    DATA.write_text(json.dumps({
        name: {
            counter: int(value) if value == int(value) else value
            for counter, value in counters.items()
        }
        for name, counters in measure().items()
    }, indent=1) + "\n")
