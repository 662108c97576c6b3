"""A run leaves its store as one file.

SQLite in WAL mode keeps ``-wal`` and ``-shm`` files beside the database
until the last connection to it closes, and a ``Store``'s connection sits
in a reference cycle that only the cyclic collector would free — which a
command-line run, whose heap is frozen at exit, never does. So
``--store PATH`` closes its store when the run ends, and
``heap.freeze_for_exit`` closes the ``REPRO_STORE`` handle before it
freezes.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.experiments import heap, sweeps
from repro.experiments.runner import main
from repro.store import store as store_module

ARGV = ["sim", "--engine", "vectorized", "--scale", "0.02", "--duration",
        "20", "--format", "json"]


@pytest.fixture(autouse=True)
def _fresh_process_state(monkeypatch):
    monkeypatch.setattr(store_module, "_active", store_module._UNSET)
    monkeypatch.setattr(store_module, "_env_store", None)
    monkeypatch.delenv(store_module.STORE_ENV, raising=False)
    monkeypatch.setattr(sweeps, "_GRID_CACHE", {})


def _source(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["provenance"]["source"]


def test_a_store_run_leaves_only_the_database(tmp_path, capsys):
    path = tmp_path / "p.sqlite"
    assert _source(capsys, [*ARGV, "--store", str(path)]) == "computed"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.sqlite"]
    # Closed, not lost: a second run in the same process reads it.
    assert _source(capsys, [*ARGV, "--store", str(path)]) == "store"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.sqlite"]


def test_the_exit_freeze_closes_the_environment_store(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "p.sqlite"
    monkeypatch.setenv(store_module.STORE_ENV, str(path))
    assert _source(capsys, ARGV) == "computed"
    # The process-wide handle stays open for the next run ...
    assert (tmp_path / "p.sqlite-wal").exists()
    try:
        heap.freeze_for_exit()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    # ... until the process is about to exit.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.sqlite"]
    assert _source(capsys, ARGV) == "store"
