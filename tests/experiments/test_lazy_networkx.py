"""``networkx`` is an event-substrate dependency, imported on first use.

It is a quarter of what ``import repro.experiments.runner`` used to
cost and is needed only to build an overlay / replica-group graph, so a
vectorized run beyond the calibration limit (no event substrate at all)
or a warm rerun must finish without it, and an event-engine run must
still find it when it builds its first topology. Checked in a fresh
interpreter: ``sys.modules`` of the test process proves nothing.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_PROGRAM = """
import sys
from repro.experiments import runner
from repro.net.topology import build_gnutella_graph  # importable without it
assert "networkx" not in sys.modules, "imported with the runner"
assert runner.main({argv!r}) == 0
print("networkx" in sys.modules)
"""


def _networkx_loaded_after(argv: list[str]) -> bool:
    done = subprocess.run(
        [sys.executable, "-c", _PROGRAM.format(argv=argv)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1] == "True"


def test_vectorized_sweep_never_imports_networkx():
    # 6,000 peers: beyond CALIBRATION_LIMIT, so costs are closed-form.
    # (At --scale 0.02 the sweep calibrates its per-op costs on a
    # 400-peer event substrate, which does build a topology.)
    assert not _networkx_loaded_after(
        ["sweep", "--scale", "0.3", "--duration", "30", "--no-store"]
    )


def test_event_engine_imports_networkx_on_first_topology():
    # Exit code 0 means all four strategies built their overlay and ran.
    assert _networkx_loaded_after(
        ["sim", "--engine", "event", "--duration", "20", "--no-store"]
    )
