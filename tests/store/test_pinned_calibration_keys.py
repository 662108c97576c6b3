"""The "calibration keys never moved" invariant, held by digests.

A stored calibration is found again only if the call that wants it keys
its inputs to the digest it was saved under. ``data/pinned_calibration_keys.json``
was recorded at ``3a2e86e``, before the calibrations read and wrote the
store through :func:`repro.store.memo.stored`, by :func:`written_keys`
below: the ``costs``, ``churn_costs`` and ``lookup_probe`` rows one
``indexAll`` cost resolution writes into an empty store at scale 0.02,
seed 0, availability 0.5. ``indexAll``'s DHT (every peer) differs from
the churned probe network's, so the member rescale runs and writes the
two ``lookup_probe`` rows.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from repro import obs
from repro.analysis.strategies import strategy_setup
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import compare
from repro.obs.cache import _CACHES
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.store.store import Store, using_store

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_calibration_keys.json").read_text()
)


def calibrate(path: Path) -> None:
    """Resolve ``indexAll``'s churned costs against the store at ``path``,
    every calibration cache of this process cleared first."""
    params = simulation_scenario(scale=0.02)
    config = PdhtConfig.from_scenario(params)
    members = strategy_setup(params, config, "indexAll").num_members
    for cache in map(_CACHES.get, compare.calibration_cache_stats()):
        cache.cache_clear()  # an L1 hit would not reach the store
    with Store(path) as store, using_store(store):
        compare.resolve_costs(
            params, config, members, seed=0,
            churn=compare.churn_config_for_availability(0.5),
        )


def written_keys(path: Path) -> dict[str, list[str]]:
    """The ``{kind: sorted keys}`` one calibration run writes at ``path``."""
    calibrate(path)
    db = sqlite3.connect(path)
    try:
        rows = db.execute(
            "SELECT kind, key FROM artifacts ORDER BY kind, key"
        ).fetchall()
    finally:
        db.close()
    keys: dict[str, list[str]] = {}
    for kind, key in rows:
        keys.setdefault(kind, []).append(key)
    return keys


def test_calibrations_write_the_pinned_keys(tmp_path):
    keys = written_keys(tmp_path / "artifacts.sqlite")
    assert {kind: len(found) for kind, found in keys.items()} == {
        "costs": 1, "churn_costs": 1, "lookup_probe": 2,
    }
    assert keys == PINNED


def test_a_fresh_process_loads_every_calibration_and_probes_nothing(
    tmp_path, monkeypatch
):
    path = tmp_path / "artifacts.sqlite"
    calibrate(path)
    built = []
    init = PdhtNetwork.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PdhtNetwork, "__init__", counting)
    obs.enable()
    try:
        calibrate(path)
        telemetry = obs.collector().snapshot()
    finally:
        obs.disable()
    counters = telemetry["counters"]
    assert counters["cache.store.hit"] == 4
    assert "cache.store.miss" not in counters
    assert not [name for name in telemetry["spans"] if "calibrate." in name]
    assert built == []
