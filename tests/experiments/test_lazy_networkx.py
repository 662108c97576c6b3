"""``networkx`` is a diagnostics dependency: no benchmark command loads it.

It is a quarter of what ``import repro.experiments.runner`` used to cost
and 15 MB of resident memory, and the only graph the simulators build —
a bridged random regular one — is
:func:`repro.net.topology.bridged_regular_rows`. So an event-engine run,
a calibrating vectorized run and a closed-form sweep must all finish
without it; a ``barabasi_albert`` overlay and a ``.graph`` diagnostic
view still find it on first use. Checked in a fresh interpreter:
``sys.modules`` of the test process proves nothing.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_RUNNER = """
import sys
from repro.experiments import runner
from repro.net.topology import build_gnutella_graph  # importable without it
assert "networkx" not in sys.modules, "imported with the runner"
assert runner.main({argv!r}) == 0
print("networkx" in sys.modules)
"""

_DIAGNOSTICS = """
import sys
import numpy as np
from repro.net.node import PeerPopulation
from repro.net.topology import GnutellaTopology

def build(kind):
    return GnutellaTopology(
        PeerPopulation(30), 2, np.random.default_rng(0), kind
    )

regular = build("random_regular")
print("networkx" in sys.modules)
{use}
print("networkx" in sys.modules)
"""


def _fresh_interpreter(program: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def _networkx_loaded_after(argv: list[str]) -> bool:
    return _fresh_interpreter(_RUNNER.format(argv=argv))[-1] == "True"


def test_vectorized_sweep_never_imports_networkx():
    # 6,000 peers: beyond CALIBRATION_LIMIT, so costs are closed-form.
    assert not _networkx_loaded_after(
        ["sweep", "--scale", "0.3", "--duration", "30", "--no-store"]
    )


def test_event_engine_never_imports_networkx():
    # Exit code 0 means all four strategies built their overlay and ran.
    assert not _networkx_loaded_after(
        ["sim", "--engine", "event", "--duration", "20", "--no-store"]
    )


def test_churn_calibration_never_imports_networkx():
    # The benchmark's ``churn_cold`` command: 400 peers, so every
    # availability calibrates on a churned event substrate.
    assert not _networkx_loaded_after(
        ["churn", "--engine", "vectorized", "--duration", "120",
         "--scale", "0.02", "--seed", "0", "--no-store"]
    )


@pytest.mark.parametrize("use", ["regular.graph", 'build("barabasi_albert")'])
def test_diagnostics_import_networkx_on_first_use(use):
    assert _fresh_interpreter(_DIAGNOSTICS.format(use=use)) == ["False", "True"]
