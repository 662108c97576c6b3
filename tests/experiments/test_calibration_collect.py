"""The collection between cost resolution and the kernels.

Below ``CALIBRATION_LIMIT`` a vectorized run measures its per-op costs on
event substrates, and a dead substrate is cyclic — the simulation's
recurring events refer back to it — so reference counting alone leaves
its population, DHT and stores resident. Left to the automatic collector
they are still there when the kernels allocate, and ``churn_cold``'s
peak RSS then sits one 1 MiB heap step higher or lower depending on
nothing but how much code the process imported (ISSUE 22: 50.1 -> 51.1 MB
from 50 unused lines; ``tools/rss_layout_check.py`` varies the
environment, not the program, and cannot see it). ``Execution.execute``
therefore hands ``run_many`` an ``after_resolve`` callback that runs one
full collection between its cost resolution and its kernels — when, and
only when, ``compare.probe_substrates_built()`` moved, i.e. a probe
really constructed a ``PdhtNetwork``.

Mutations run, each caught by the test named: the collection removed, or
of the young generation only (a ``PeerPopulation`` and a ``Simulation``
per probe are still alive at the first kernel run) —
``test_no_substrate_outlives_calibration_and_only_calibration_collects``;
the collection made unconditionally — the same test (its second run);
made on any calibration-cache miss —
``test_analytical_costs_are_not_a_calibration`` and
``test_costs_read_from_the_store_are_not_a_calibration``; costs resolved
a second time outside ``run_many`` — ``test_costs_are_resolved_once``.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.experiments import execution
from repro.experiments.execution import Cell, Execution
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import compare, kernel, parallel
from repro.fastsim.compare import churn_config_for_availability
from repro.net.node import PeerPopulation
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.sim.engine import Simulation
from repro.store.store import open_store, using_store

SUBSTRATE_TYPES = (PdhtNetwork, PeerPopulation, Simulation)


@pytest.fixture
def collections(monkeypatch):
    """Explicit ``gc.collect()`` calls made by ``execution``, counted."""
    calls = []

    def collect(*args):
        calls.append(args)
        return gc.collect(*args)

    counting = types.SimpleNamespace(
        **{name: getattr(gc, name) for name in dir(gc) if not name.startswith("_")}
    )
    counting.collect = collect
    monkeypatch.setattr(execution, "gc", counting)
    return calls


@pytest.fixture
def cold_calibration():
    """No calibration cached in this process, before or after."""
    caches = list(compare._CALIBRATION_CACHES.values())
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


def test_no_substrate_outlives_calibration_and_only_calibration_collects(
    collections, cold_calibration, substrates_at_first_round
):
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    reports = Execution(engine="vectorized").execute(_churn_cells(0.02))
    assert len(reports) == 2
    misses = sum(
        c["misses"] for c in compare.calibration_cache_stats().values()
    )
    assert misses > 0, "the run was meant to calibrate"
    assert compare.probe_substrates_built() > 0
    assert len(collections) == 1
    assert substrates_at_first_round == [[]]
    # the collector is as it was found
    assert gc.isenabled() == was_enabled
    assert gc.get_threshold() == threshold
    assert gc.get_freeze_count() == 0

    # A second run finds every cost in the caches: nothing is built, and
    # nothing is collected.
    built = compare.probe_substrates_built()
    Execution(engine="vectorized").execute(_churn_cells(0.02))
    assert compare.probe_substrates_built() == built
    assert len(collections) == 1


def test_analytical_costs_are_not_a_calibration(collections, cold_calibration):
    """Past ``CALIBRATION_LIMIT`` a cost-cache miss computes a formula."""
    params = simulation_scenario(scale=0.3)
    assert params.num_peers > compare.CALIBRATION_LIMIT
    cell = Cell(
        params=params, config=PdhtConfig.from_scenario(params), duration=3.0
    )
    Execution(engine="vectorized").execute([cell])
    assert compare.calibration_cache_stats()["costs"]["misses"] > 0
    assert collections == []


def test_costs_read_from_the_store_are_not_a_calibration(
    collections, cold_calibration, tmp_path
):
    """A calibration-cache miss the artifact store answers builds nothing."""
    cells = _churn_cells(0.02)[:1]
    with using_store(open_store(tmp_path / "store.sqlite")):
        Execution(engine="vectorized").execute(cells)
        assert len(collections) == 1
        for cache in compare._CALIBRATION_CACHES.values():
            cache.cache_clear()
        built = compare.probe_substrates_built()
        misses = compare.calibration_cache_stats()["costs"]["misses"]
        Execution(engine="vectorized").execute(cells)
        assert compare.calibration_cache_stats()["costs"]["misses"] > misses
        assert compare.probe_substrates_built() == built
        assert len(collections) == 1


def test_costs_are_resolved_once(monkeypatch, cold_calibration):
    calls = []
    resolve_jobs = parallel.resolve_jobs

    def counting(jobs):
        calls.append(len(jobs))
        return resolve_jobs(jobs)

    monkeypatch.setattr(parallel, "resolve_jobs", counting)
    Execution(engine="vectorized").execute(_churn_cells(0.02))
    assert calls == [2]
