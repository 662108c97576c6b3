"""The benchmark's traced pass still finds every call it wraps.

``benchmarks/e2e/layers.py`` times each layer by wrapping program
functions and methods by name (``kernel.strategy_setup``,
``SimulatedStrategy.run``, ``FastSimKernel.__init__``, ...). A rename
breaks ``run.py --trace 1`` with a ``KeyError`` that no other tier-1 test
sees; a wrapped function that loses an import site silently drops out of
its layer. This installs the wrappers the way the traced pass does —
after importing the runner — counts the replaced bindings and puts every
original back.
"""

from __future__ import annotations

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))

import layers  # noqa: E402
import spans  # noqa: E402

#: Module-level names and class attributes of ``repro`` that
#: ``layers.install`` replaces, with ``repro.experiments.runner`` loaded
#: as in the traced pass.
WRAPPED_BINDINGS = 57


def _module_of(holder) -> str:
    return holder.__module__ if isinstance(holder, type) else holder.__name__


def test_layers_install_wraps_every_binding():
    import repro.experiments.runner  # noqa: F401 - the traced pass has it

    patcher = spans.Patcher(spans.SpanRecorder(), "repro")
    try:
        layers.install(patcher)
        # Workload subclasses that other test modules define are wrapped
        # too; only the program's bindings are counted.
        wrapped = sum(
            _module_of(holder).startswith("repro")
            for holder, _, _ in patcher._undo
        )
    finally:
        patcher.restore()
    assert wrapped == WRAPPED_BINDINGS
