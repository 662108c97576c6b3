"""Calibration substrates are gone before the kernels allocate, and
nothing collects.

Below ``CALIBRATION_LIMIT`` a vectorized run measures its per-op costs on
event substrates. A probe's substrate is acyclic
(``tests/integration/test_acyclic_substrates.py``), so reference counting
frees its population, DHT and stores the moment the probe returns: none
is still resident when the first kernel round allocates, which keeps
``churn_cold``'s peak RSS the kernels' alone (it once sat one 1 MiB heap
step higher or lower depending on nothing but how much code the process
imported). No explicit ``gc.collect()`` runs on the way — not after cost
resolution, not on a calibration-cache miss, not when a store answers.

Mutations run, each caught by the test named: a reference cycle put
back into the substrate (the event list's self-referencing ``fire``
closure, since replaced by the round clock: every probe substrate is
then still alive at the first kernel round) —
``test_no_substrate_outlives_calibration``; a collection put back after
cost resolution — the same test; costs resolved a second time outside
``run_many`` — ``test_costs_are_resolved_once``.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.execution import Cell, Execution
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import compare, kernel, parallel
from repro.fastsim.compare import churn_config_for_availability
from repro.net.node import PeerPopulation
from repro.obs.cache import _CACHES
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.sim.engine import Simulation
from repro.store.store import open_store, using_store

SUBSTRATE_TYPES = (PdhtNetwork, PeerPopulation, Simulation)


@pytest.fixture
def collections(monkeypatch):
    """Explicit ``gc.collect()`` calls made by anyone, counted."""
    calls = []
    collect = gc.collect

    def counting(*args):
        calls.append(args)
        return collect(*args)

    monkeypatch.setattr(gc, "collect", counting)
    return calls


@pytest.fixture
def substrates_built(monkeypatch):
    """Event substrates constructed, counted."""
    built = []
    init = PdhtNetwork.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PdhtNetwork, "__init__", counting)
    return built


@pytest.fixture
def cold_calibration():
    """No calibration cached in this process, before or after."""
    caches = list(map(_CACHES.get, compare.calibration_cache_stats()))
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def substrates_at_first_round(monkeypatch):
    """Substrate objects alive when the first kernel run starts."""
    seen = []
    run = kernel.FastSimKernel.run

    def spying_run(self, *args, **kwargs):
        if not seen:
            seen.append([
                type(o).__name__ for o in gc.get_objects()
                if isinstance(o, SUBSTRATE_TYPES)
            ])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(kernel.FastSimKernel, "run", spying_run)
    return seen


def _churn_cells(scale: float) -> list[Cell]:
    params = simulation_scenario(scale=scale)
    return [
        Cell(
            params=params,
            config=PdhtConfig.from_scenario(params),
            duration=5.0,
            strategy=strategy,
            churn=churn_config_for_availability(0.8),
        )
        for strategy in ("partialSelection", "indexAll")
    ]


def test_no_substrate_outlives_calibration(
    collections, cold_calibration, substrates_at_first_round
):
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    reports = Execution(engine="vectorized").execute(_churn_cells(0.02))
    assert len(reports) == 2
    misses = sum(
        c["misses"] for c in compare.calibration_cache_stats().values()
    )
    assert misses > 0, "the run was meant to calibrate"
    assert substrates_at_first_round == [[]]
    assert collections == []
    # the collector is as it was found
    assert gc.isenabled() == was_enabled
    assert gc.get_threshold() == threshold
    assert gc.get_freeze_count() == 0


def test_analytical_costs_are_not_a_calibration(
    collections, cold_calibration, substrates_built
):
    """Past ``CALIBRATION_LIMIT`` a cost-cache miss computes a formula."""
    params = simulation_scenario(scale=0.3)
    assert params.num_peers > compare.CALIBRATION_LIMIT
    cell = Cell(
        params=params, config=PdhtConfig.from_scenario(params), duration=3.0
    )
    Execution(engine="vectorized").execute([cell])
    assert compare.calibration_cache_stats()["costs"]["misses"] > 0
    assert substrates_built == []
    assert collections == []


def test_costs_read_from_the_store_are_not_a_calibration(
    collections, cold_calibration, substrates_built, tmp_path
):
    """A calibration-cache miss the artifact store answers builds nothing."""
    cells = _churn_cells(0.02)[:1]
    with open_store(tmp_path / "store.sqlite") as store, using_store(store):
        Execution(engine="vectorized").execute(cells)
        assert substrates_built
        for cache in map(_CACHES.get, compare.calibration_cache_stats()):
            cache.cache_clear()
        built = len(substrates_built)
        misses = compare.calibration_cache_stats()["costs"]["misses"]
        Execution(engine="vectorized").execute(cells)
        assert compare.calibration_cache_stats()["costs"]["misses"] > misses
        assert len(substrates_built) == built
    assert collections == []


def test_costs_are_resolved_once(monkeypatch, cold_calibration):
    calls = []
    resolve_jobs = parallel.resolve_jobs

    def counting(jobs):
        calls.append(len(jobs))
        return resolve_jobs(jobs)

    monkeypatch.setattr(parallel, "resolve_jobs", counting)
    Execution(engine="vectorized").execute(_churn_cells(0.02))
    assert calls == [2]
