"""Scenario presets and engine selection for the experiments.

``paper_scenario`` is Table 1 verbatim; the analytical figures are
evaluated at that scale. Pure-Python discrete-event simulation of 20,000
peers is possible but slow, so the simulated experiments default to
``simulation_scenario`` — Table 1 scaled down by :data:`SIMULATION_SCALE`
with ``numPeers`` and ``keys`` reduced together. Scaling keeps keys per
peer (2) and a full index at every peer (``keys * repl / stor`` =
``numPeers``), but not every ratio the model consumes: ``repl`` and the
duplication factors stay fixed, so the walk/flood cost ratio
``numPeers * dup / (repl**2 * dup2)`` moves with the scale (8 at Table 1,
0.4 at 1,000 peers). What carries over is the shape of the figures —
partial indexing below both baselines at every query frequency
(``tests/integration/test_model_vs_paper.py::TestScaleInvariance``) —
not their numbers.

Two simulation engines exist, selected by the ``engine`` knob every
simulated experiment accepts:

* ``"event"`` — the discrete-event engine (:mod:`repro.sim` +
  :mod:`repro.pdht.strategies`): per-message fidelity, capped at a few
  thousand peers;
* ``"vectorized"`` — the batch kernel (:mod:`repro.fastsim`): numpy
  round-stepped execution that runs Table 1 at full scale and beyond
  (:func:`fastsim_scenario` scales it *up* instead of down).
"""

from __future__ import annotations

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError

__all__ = [
    "SIMULATION_SCALE",
    "FASTSIM_SCALE",
    "ENGINES",
    "DEFAULT_ENGINE",
    "resolve_engine",
    "paper_scenario",
    "simulation_scenario",
    "fastsim_scenario",
]

#: Default scale-down factor for simulated experiments (Table 1 x 1/20).
SIMULATION_SCALE = 0.05

#: Default scale-up factor for vectorized runs (Table 1 x 5 = 100k peers).
FASTSIM_SCALE = 5.0

#: Supported simulation engines.
ENGINES = ("event", "vectorized")

DEFAULT_ENGINE = "event"


def resolve_engine(engine: str) -> str:
    """Validate an engine name; returns it normalised."""
    name = engine.lower().strip()
    if name not in ENGINES:
        raise ParameterError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return name


def paper_scenario() -> ScenarioParameters:
    """The exact Table 1 scenario (20,000 peers, 40,000 keys)."""
    return ScenarioParameters.paper_scenario()


def simulation_scenario(
    scale: float = SIMULATION_SCALE, query_freq: float = 1.0 / 30.0
) -> ScenarioParameters:
    """A reduced scenario for discrete-event simulation runs.

    With the default scale: 1,000 peers, 2,000 keys, replication 50,
    storage 100 — so a full index needs all 1,000 peers, as Table 1's
    needs all 20,000, while the walk/flood cost ratio falls from 8 to 0.4
    (:meth:`~repro.analysis.parameters.ScenarioParameters.scaled`).
    """
    return paper_scenario().scaled(scale).with_query_freq(query_freq)


def fastsim_scenario(
    scale: float = FASTSIM_SCALE, query_freq: float = 1.0 / 30.0
) -> ScenarioParameters:
    """A scaled-*up* Table 1 for the vectorized kernel.

    The default (scale 5) is 100,000 peers and 200,000 keys; ``scale=50``
    reaches the million-peer regime. Only the ``engine="vectorized"``
    path can run these — the event engine would need hours per run.
    """
    params = paper_scenario().scaled(scale)
    if scale < 1.0:
        raise ParameterError(
            f"fastsim_scenario scales Table 1 up; use simulation_scenario "
            f"for reductions (got scale={scale})"
        )
    return params.with_query_freq(query_freq)
