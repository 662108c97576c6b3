#!/usr/bin/env python
"""Interrupt a sweep, resume it, and recompute nothing.

``repro.store`` keys every sweep cell by a content hash of its resolved
job (scenario, strategy, seed, duration, per-op costs, package version,
payload schema revision) and saves each finished cell to a SQLite
artifact store as it completes. Rerunning the same sweep against the
same store loads the finished cells instead of recomputing them — so an
interrupted overnight sweep resumes from where it died, and a tweaked
grid only pays for its *new* cells.

This example simulates an interruption by sweeping only a third of the
grid (one TTL factor of three), then "resumes" with the full sweep and
proves — via the ``cache.store.*`` telemetry counters — that the
finished cells were loaded from disk while only the rest computed. A
final rerun loads every cell and returns a bit-identical figure. Cell
keys don't depend on the grid's shape, which is also why the partial
grid's artifacts satisfy the full grid.

Run with::

    python examples/resumable_sweep.py

In real use you point experiments at a persistent store instead of a
temporary one, either per-invocation::

    python -m repro.experiments.runner sweep --store sweeps.sqlite

or process-wide::

    REPRO_STORE=sweeps.sqlite python -m repro.experiments.runner sweep
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import obs
from repro.experiments import simulation_scenario
from repro.experiments.sweeps import GridAxes, sweep_grid
from repro.store import Store, using_store

FULL = GridAxes(
    ttl_factors=(0.5, 1.0, 2.0),
    alphas=(0.8, 1.2),
    query_freqs=(1 / 30,),
)
#: The cells that "finished before the interruption": one TTL factor.
PARTIAL = GridAxes(
    ttl_factors=(0.5,),
    alphas=(0.8, 1.2),
    query_freqs=(1 / 30,),
)
DURATION = 60.0


def main() -> None:
    params = simulation_scenario(scale=0.02)  # 400 peers, 800 keys
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "sweeps.sqlite"
        with Store(store_path) as store, using_store(store):
            # --- the "interrupted" run: 2 of 6 cells finish -----------
            sweep_grid(PARTIAL, params, duration=DURATION, seed=0)
            done = store.db.count("sweep_cell")
            print(
                f"interrupted: {done}/{FULL.size} cells finished, "
                f"{done} artifacts on disk"
            )

            # --- resume: finished cells load, the rest compute --------
            obs.enable()
            figure = sweep_grid(FULL, params, duration=DURATION, seed=0)
            counters = obs.collector().counters
            obs.disable()
            hits = int(counters.get("cache.store.sweep_cell.hit", 0))
            misses = int(counters.get("cache.store.sweep_cell.miss", 0))
            print(
                f"resumed:     {hits} cells loaded from the store, "
                f"{misses} computed"
            )
            assert hits == done and hits + misses == FULL.size

            # --- rerun: every cell loads, the figure is identical -----
            again = sweep_grid(FULL, params, duration=DURATION, seed=0)
            assert again.series == figure.series
            assert again.x_values == figure.x_values
            print(
                f"reran:       all {store.db.count('sweep_cell')} cells "
                "loaded, figure bit-identical"
            )


if __name__ == "__main__":
    main()
