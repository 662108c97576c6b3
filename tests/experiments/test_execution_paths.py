"""The single execution path, as one parity matrix.

Every simulated experiment lists cells and hands them to
``Execution.execute`` (``repro.experiments.execution``); the worker count
is execution detail and must change nothing a caller can observe. Each
row of the matrix runs one experiment under ``jobs in {1, 2}`` against a
fresh store and checks the two runs agree on the figure, on the *set of
store keys* they leave behind (persistence used to depend on ``--jobs``), on
the merged ``kernel.*`` telemetry counters, and that a rerun against the
filled store executes zero kernel runs. Around the matrix: replicate
payloads are saved as they complete, figure titles carry the resolved
engine name, and the kernel's own cost resolution equals the pool
parent's. Shared-memory staging is a ``run_many`` option only; its
parity, leak and crash checks are in ``tests/fastsim/test_shm.py``.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro import obs
from repro.experiments import api, sweeps
from repro.experiments.api import iter_specs, run
from repro.experiments.execution import Execution
from repro.experiments.figures import (
    adaptivity_lag_table,
    adaptivity_tracking,
    staleness_experiment,
)
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.fastsim.compare import churn_config_for_availability
from repro.fastsim.parallel import FastSimJob, run_many
from repro.store import Store

SCALE = 0.02

#: One row per simulated experiment: the overrides that keep it small.
MATRIX = {
    "sim": dict(duration=30.0),
    "adaptivity": dict(duration=60.0, shift_at=30.0, window=15.0),
    "adaptivity-tracking": dict(duration=60.0, workload="rank-swap"),
    "adaptivity-lag": dict(duration=60.0, workload="rank-swap"),
    "churn": dict(duration=30.0),
    "staleness": dict(duration=60.0),
    "simfig1": dict(duration=30.0),
    "sweep": dict(duration=30.0),
    "sweep-optimal": dict(duration=30.0),
}


def test_matrix_covers_every_simulated_experiment():
    simulated = {spec.name for spec in iter_specs() if spec.kind == "simulated"}
    assert simulated == set(MATRIX)


def _profiled_run(name, **overrides):
    """``run`` with telemetry on: ``(figure, counters of that run)``.

    The sweeps' in-process grid cache is keyed without the worker count
    on purpose; cleared here so every run reaches the executor.
    """
    sweeps._GRID_CACHE.clear()
    obs.enable()
    try:
        result = run(name, **overrides)
    finally:
        obs.disable()
    return result.figure, result.telemetry["counters"]


def _sweep_cell_keys(path):
    store = Store(path)
    try:
        rows = store.db._conn.execute(
            "SELECT key FROM artifacts WHERE kind = 'sweep_cell'"
        ).fetchall()
        return {row[0] for row in rows}
    finally:
        store.close()


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_jobs_parity(name, tmp_path):
    overrides = dict(MATRIX[name], engine="vectorized", scale=SCALE, seed=1)
    outcomes = {}
    for jobs in (1, 2):
        path = str(tmp_path / f"jobs{jobs}.sqlite")
        figure, counters = _profiled_run(
            name, jobs=jobs, store=path, **overrides
        )
        kernel = {k: v for k, v in counters.items() if k.startswith("kernel.")}
        outcomes[jobs] = (
            figure.x_values, figure.series, _sweep_cell_keys(path), kernel,
        )
        # The filled store answers every cell: no kernel runs on a rerun,
        # at the *other* worker count, and the same figure comes back.
        again, recount = _profiled_run(
            name, jobs=3 - jobs, store=path, **overrides
        )
        assert recount.get("cache.store.sweep_cell.miss", 0) == 0
        assert recount.get("kernel.runs", 0) == 0
        assert again.series == figure.series
    reference = outcomes[1]
    assert reference[2], "every vectorized cell is persisted, at any jobs"
    assert reference[3].get("kernel.runs") == len(reference[2])
    assert outcomes[2] == reference


def test_figure_titles_carry_the_resolved_engine_name():
    params = simulation_scenario(scale=SCALE)
    execution = Execution(" Vectorized ")
    assert execution.engine == "vectorized"
    for figure in (
        staleness_experiment(
            params=params, duration=40.0, ttl_factors=(1.0,),
            execution=execution,
        ),
        adaptivity_tracking(
            params=params, duration=40.0, workload="rank-swap",
            execution=execution,
        ),
        adaptivity_lag_table(
            params=params, duration=40.0, workload="rank-swap",
            execution=execution,
        ),
    ):
        assert "vectorized)" in figure.name
        assert "Vectorized" not in figure.name


class TestReplicatesPersistPerCompletion:
    """A replication killed at seed N-1 keeps its first N-1 payloads."""

    OVERRIDES = dict(engine="vectorized", duration=20.0, scale=SCALE)

    def _failing_on_third_seed(self, monkeypatch):
        spec = api.get_spec("sim")
        real = spec.builder

        # wraps: the spec binds the wrapper by the real signature.
        @functools.wraps(real)
        def builder(**arguments):
            if arguments["seed"] == 2:
                raise RuntimeError("killed at the third seed")
            return real(**arguments)

        monkeypatch.setitem(
            api._REGISTRY, "sim", dataclasses.replace(spec, builder=builder)
        )

    def test_completed_seeds_survive_a_failure(self, tmp_path, monkeypatch):
        path = str(tmp_path / "replicates.sqlite")
        with monkeypatch.context() as patched:
            self._failing_on_third_seed(patched)
            with pytest.raises(RuntimeError, match="third seed"):
                run("sim", replicates=3, store=path, **self.OVERRIDES)
        store = Store(path)
        try:
            assert store.db.count("replicate") == 2
        finally:
            store.close()

        obs.enable()
        try:
            resumed = run("sim", replicates=3, store=path, **self.OVERRIDES)
        finally:
            obs.disable()
        counters = resumed.telemetry["counters"]
        assert counters["cache.store.replicate.hit"] == 2
        assert counters["cache.store.replicate.miss"] == 1
        fresh = run("sim", replicates=3, store="none", **self.OVERRIDES)
        assert resumed.figure.series == fresh.figure.series
        assert resumed.replication == fresh.replication


@pytest.mark.parametrize("availability", (1.0, 0.75))
def test_kernel_and_pool_parent_share_cost_resolution(availability):
    """``run_fastsim`` (the kernel resolves its own costs) and ``run_many``
    (``resolve_jobs`` resolves them first) share one cost function."""
    params = simulation_scenario(scale=SCALE)
    churn = churn_config_for_availability(availability)
    direct = run_fastsim(params, duration=30.0, churn=churn, seed=5)
    (pooled,) = run_many(
        [FastSimJob(params, duration=30.0, churn=churn, seed=5)], store=None
    )
    left, right = dataclasses.asdict(direct), dataclasses.asdict(pooled)
    left.pop("elapsed_seconds")
    right.pop("elapsed_seconds")
    assert left == right
