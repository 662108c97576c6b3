"""Discrete-event simulation substrate.

The paper's evaluation is analytical, but Section 5.2 reports a simulator
for the selection algorithm. This subpackage provides the simulation core
everything else builds on:

* :class:`repro.sim.engine.Simulation` — a classic event-list discrete-event
  engine with integer-round granularity (one round = one second, matching
  the paper's footnote 1) plus intra-round FIFO ordering;
* :class:`repro.sim.rng.RandomStreams` — named, independently-seeded random
  streams so that churn, queries, and topology are reproducible in isolation;
* :class:`repro.sim.metrics.MessageMetrics` — message accounting by category,
  the cost unit of the paper.
"""

from repro.sim.engine import Event, Simulation
from repro.sim.metrics import MessageCategory, MessageMetrics
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "Simulation",
    "MessageCategory",
    "MessageMetrics",
    "RandomStreams",
]
