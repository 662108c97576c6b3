"""Every event substrate is freed by reference counting alone.

An event cell and a calibration probe each build a ``PdhtNetwork`` of
some 10^5 containers and drop it when they end. Nothing in the run
collects: the substrate must hold no reference cycle, or it stays
resident until an automatic full collection walks the whole heap to find
it. The substrate's time is a round clock: a ``Simulation`` holds its
``ChurnProcess`` (a heap of ``(time, sequence, peer)`` tuples) and the
maintenance sweep as its round hook, and neither refers back to the
clock or the network. The event list it replaced had two cycles — a
recurring event's ``fire`` closure re-scheduling itself, and each churn
transition closing over a ``ChurnProcess`` that held its simulation —
and each was caught here (a scratch copy with either restored failed
every case it reached); a round hook bound to the network would be too.

Each case builds, runs and drops one substrate kind after one baseline
collection, then collects: under ``gc.DEBUG_SAVEALL`` that collection
must find no unreachable object, and no automatic one during the run may
have found any either (``gc.garbage`` stays empty). Every ``repro``
module is imported first, because a class built by
``dataclass(slots=True)`` leaves the original class behind as cyclic
garbage on first import.
"""

from __future__ import annotations

import collections
import gc
import importlib
import pkgutil

import pytest

import repro
from repro.experiments.execution import Cell
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import compare
from repro.obs.cache import _CACHES
from repro.pdht.config import PdhtConfig
from repro.store.store import using_store

PARAMS = simulation_scenario(scale=0.01)
CONFIG = PdhtConfig.from_scenario(PARAMS)
CHURN = compare.churn_config_for_availability(0.8)


def _cell(strategy: str, churn=None) -> None:
    Cell(
        params=PARAMS, config=CONFIG, duration=5.0, strategy=strategy,
        churn=churn,
    ).run()


SUBSTRATES = {
    **{
        strategy: (lambda strategy=strategy: _cell(strategy))
        for strategy in (
            "noIndex", "indexAll", "partialIdeal", "partialSelection",
        )
    },
    "churned-cell": lambda: _cell("partialSelection", churn=CHURN),
    "calibrate_costs": lambda: compare.calibrate_costs(
        PARAMS, CONFIG, lookup_probes=16, flood_probes=8, walk_probes=8
    ),
    "calibrate_churn_costs": lambda: compare.calibrate_churn_costs(
        PARAMS, CHURN, CONFIG, warmup=2.0, rounds=3.0, walk_probes=8
    ),
    "_churned_lookup_probe": lambda: compare._churned_lookup_probe(
        PARAMS, CONFIG, 0.8, 20, 0, probes=16
    ),
}


@pytest.fixture(scope="module", autouse=True)
def everything_imported():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


@pytest.fixture
def saved_garbage():
    """Collections made inside the test keep what they find in
    ``gc.garbage`` instead of freeing it."""
    flags = gc.get_debug()
    yield
    gc.set_debug(flags)
    gc.garbage.clear()


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_a_dropped_substrate_leaves_no_cycle(kind, saved_garbage):
    for cache in map(_CACHES.get, compare.calibration_cache_stats()):
        cache.cache_clear()
    with using_store(None):
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        SUBSTRATES[kind]()
        unreachable = gc.collect()
    kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
    assert unreachable == 0, kinds.most_common(10)
    assert not gc.garbage, kinds.most_common(10)
