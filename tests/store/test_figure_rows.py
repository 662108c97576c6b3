"""A simulated run's finished figure is one ``replicate`` row.

A repeated run on a store is a lookup: it prints the cold run's figure in
every format, series order included. The row's key holds what the figure
depends on — a ``trace:<path>`` workload by the trace's bytes, not its
path — and a row (figure or cell) whose payload no longer matches the
digest it was saved with is a counted miss that is recomputed.
"""

from __future__ import annotations

import json
import sqlite3

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.experiments import sweeps
from repro.experiments.runner import main
from repro.experiments.scenario import simulation_scenario
from repro.store import store as store_module
from repro.workloads import RankSwap, StationaryZipf, record_trace

#: Small overrides per simulated experiment (as in test_execution_paths).
SMALL = {
    "sim": ["--duration", "30"],
    "adaptivity": ["--duration", "60", "--shift-at", "30", "--window", "15"],
    "adaptivity-tracking": ["--duration", "60", "--workload", "rank-swap"],
    "adaptivity-lag": ["--duration", "60", "--workload", "rank-swap"],
    "churn": ["--duration", "30"],
    "staleness": ["--duration", "60"],
    "simfig1": ["--duration", "30"],
    "sweep": ["--duration", "30"],
    "sweep-optimal": ["--duration", "30"],
}


@pytest.fixture(autouse=True)
def _fresh_process_state(monkeypatch):
    """No store but the one a test names, and no grid this process
    already computed: every run reads the store or computes."""
    monkeypatch.setattr(store_module, "_active", store_module._UNSET)
    monkeypatch.delenv(store_module.STORE_ENV, raising=False)
    monkeypatch.setattr(sweeps, "_GRID_CACHE", {})


def _run(capsys, argv):
    sweeps._GRID_CACHE.clear()
    assert main(argv) == 0
    return capsys.readouterr().out


def _json(capsys, argv):
    return json.loads(_run(capsys, [*argv, "--format", "json"]))


def _body(text):
    """Rendered text without its header line, which holds the wall clock."""
    return text.split("\n", 1)[1]


def test_the_json_result_says_where_its_figure_came_from(tmp_path, capsys):
    argv = ["sim", "--engine", "vectorized", "--scale", "0.02",
            "--duration", "20"]
    store = ["--store", str(tmp_path / "s.sqlite")]
    sources = [
        _json(capsys, [*argv, *flags])["provenance"]["source"]
        for flags in (["--no-store"], store, store)
    ]
    assert sources == ["computed", "computed", "store"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_warm_run_prints_its_cold_figure_in_every_format(
    name, tmp_path, capsys
):
    argv = [name, "--engine", "vectorized", "--scale", "0.02", *SMALL[name]]
    store = ["--store", str(tmp_path / "s.sqlite")]
    cold = _json(capsys, [*argv, *store])
    warm = _json(capsys, [*argv, *store, "--profile"])
    counters = warm.pop("telemetry")["counters"]
    assert counters["cache.store.replicate.hit"] == 1
    assert "kernel.runs" not in counters
    for result in (cold, warm):
        result["provenance"].pop("wall_clock_seconds")
    assert cold["provenance"].pop("source") == "computed"
    assert warm["provenance"].pop("source") == "store"
    assert warm == cold
    assert list(warm["figure"]["series"]) == list(cold["figure"]["series"])
    for fmt in ("csv", "text"):
        fresh = _run(capsys, [*argv, "--no-store", "--format", fmt])
        stored = _run(capsys, [*argv, *store, "--format", fmt])
        if fmt == "text":
            fresh, stored = _body(fresh), _body(stored)
        assert stored == fresh


def test_a_replicated_run_keeps_its_series_order(tmp_path, capsys):
    argv = ["sim", "--engine", "vectorized", "--scale", "0.02",
            "--duration", "30", "--replicates", "2",
            "--store", str(tmp_path / "s.sqlite")]
    cold, warm = (_json(capsys, argv) for _ in range(2))
    assert list(cold["figure"]["series"])[0] == "simulated [msg/s]"
    assert list(warm["figure"]["series"]) == list(cold["figure"]["series"])
    assert list(warm["replication"]["per_seed"]) == list(
        cold["replication"]["per_seed"]
    )


def _record(path, model, seed):
    params = simulation_scenario(scale=0.02)
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    stream = model.build(zipf, np.random.default_rng(seed))
    record_trace(stream, duration=60.0, queries_per_round=20).save(path)


def test_a_trace_run_is_keyed_by_the_trace_bytes(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    argv = ["adaptivity-tracking", "--engine", "vectorized", "--scale", "0.02",
            "--duration", "60", "--workload", f"trace:{trace}",
            "--replicates", "2"]
    store = ["--store", str(tmp_path / "s.sqlite")]
    _record(trace, StationaryZipf(), seed=1)
    first = _json(capsys, [*argv, *store])["figure"]
    _record(trace, RankSwap(shift_time=30.0), seed=2)
    rewritten = _json(capsys, [*argv, *store])["figure"]
    fresh = _json(capsys, [*argv, "--no-store"])["figure"]
    assert rewritten == fresh
    assert rewritten != first


def _doctor(path, kind, edit):
    """Rewrite one ``kind`` row's payload through ``edit``, leaving its
    digest as saved; returns the row's key."""
    db = sqlite3.connect(path)
    key, payload = db.execute(
        "SELECT key, payload FROM artifacts WHERE kind = ? ORDER BY key "
        "LIMIT 1", (kind,)
    ).fetchone()
    with db:
        db.execute("UPDATE artifacts SET payload = ? WHERE key = ?",
                   (json.dumps(edit(json.loads(payload))), key))
    db.close()
    return key


def test_a_doctored_figure_row_is_a_counted_miss_and_recomputed(
    tmp_path, capsys
):
    path = tmp_path / "s.sqlite"
    argv = ["sim", "--engine", "vectorized", "--scale", "0.02",
            "--duration", "30"]
    clean = _json(capsys, [*argv, "--store", str(path)])["figure"]

    def halve_hit_rates(payload):
        for name, values in payload["figure"]["series"]:
            if name == "hit rate":
                values[:] = [value / 2 for value in values]
        return payload

    _doctor(path, "replicate", halve_hit_rates)
    rerun = _json(capsys, [*argv, "--store", str(path), "--profile"])
    counters = rerun["telemetry"]["counters"]
    assert counters["cache.store.corrupt"] == 1
    assert counters["cache.store.replicate.miss"] == 1
    assert rerun["provenance"]["source"] == "computed"
    assert rerun["figure"] == clean
    # The recompute overwrote the row: the next run is a clean hit.
    again = _json(capsys, [*argv, "--store", str(path), "--profile"])
    assert "cache.store.corrupt" not in again["telemetry"]["counters"]
    assert again["figure"] == clean


def test_a_doctored_cell_under_another_figure_is_recomputed(tmp_path, capsys):
    """``sweep-optimal`` has its own figure row but reads ``sweep``'s 18
    cells: a cell whose number changed after it was saved is not served."""
    path = tmp_path / "s.sqlite"
    sweep = ["--scale", "8", "--store", str(path)]
    _json(capsys, ["sweep", *sweep])

    def halve_index_hits(payload):
        payload["index_hits"] //= 2
        return payload

    _doctor(path, "sweep_cell", halve_index_hits)
    rerun = _json(capsys, ["sweep-optimal", *sweep, "--profile"])
    counters = rerun["telemetry"]["counters"]
    assert counters["cache.store.corrupt"] == 1
    assert counters["cache.store.sweep_cell.hit"] == 17
    assert counters["cache.store.sweep_cell.miss"] == 1
    fresh = _json(capsys, ["sweep-optimal", "--scale", "8", "--no-store"])
    assert rerun["figure"] == fresh["figure"]


def test_a_row_saved_without_a_digest_loads_unchecked(tmp_path, capsys):
    """Rows written before digests were kept (schema v1) have none."""
    path = tmp_path / "s.sqlite"
    argv = ["sweep", "--scale", "0.3", "--duration", "20",
            "--store", str(path)]
    clean = _json(capsys, argv)["figure"]
    db = sqlite3.connect(path)
    with db:
        db.execute("UPDATE artifacts SET digest = NULL")
        db.execute("DELETE FROM artifacts WHERE kind = 'replicate'")
    db.close()
    rerun = _json(capsys, [*argv, "--profile"])
    counters = rerun["telemetry"]["counters"]
    assert counters["cache.store.sweep_cell.hit"] == 18
    assert "cache.store.corrupt" not in counters
    assert rerun["figure"] == clean
