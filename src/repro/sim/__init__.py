"""Event-substrate simulation core.

The paper's evaluation is analytical, but Section 5.2 reports a simulator
for the selection algorithm. This subpackage provides the simulation core
everything else builds on:

* :class:`repro.sim.engine.Simulation` — the round clock (one round = one
  second, matching the paper's footnote 1): at each whole round it applies
  the churn transitions due by then, then runs the round hook (routing
  maintenance);
* :class:`repro.sim.rng.RandomStreams` — named, independently-seeded random
  streams so that churn, queries, and topology are reproducible in isolation;
* :class:`repro.sim.metrics.MessageMetrics` — message accounting by category,
  the cost unit of the paper.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulation",),
    "repro.sim.metrics": ("MessageCategory", "MessageMetrics"),
    "repro.sim.rng": ("RandomStreams",),
})
