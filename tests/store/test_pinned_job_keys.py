"""The "``job_key``s never moved" invariant, held by digests.

A stored sweep cell is found again only if the resolved job hashes to
the key it was saved under, so a refactor that is meant to leave results
alone must leave these digests alone: a store written before it keeps
hitting (18/18 on the warm sweep, 3/3 on the CI ``churn`` pair).
``data/pinned_job_keys.json`` was computed at ``68c170a`` — the commit
*before* ISSUE 23 — by the same :func:`resolved_jobs` below: three
default-workload ``sweep --scale 8`` cells (first / middle / last grid
point, ``wide``), one churned ``churn --scale 0.02`` cell with its
resolved per-op costs, and one model-workload cell each for
``rank-swap``, ``gradual-drift`` and ``flash-crowd``. The ``replicate``
entry (seed 0 of ``sim --engine vectorized --scale 0.02 --replicates 2``)
was computed at ``dc9ae82``, the last commit whose ``ExperimentParams``
and ``FastSimJob`` took a kernel dtype policy; ``FastSimJob.precision``
survives as a fixed ``"wide"`` field so every sweep-cell key above holds.

Keys ISSUE 23 knowingly moved, once (a recompute, never a wrong number):

* the single ``adaptivity`` cell — its key named the deleted
  ``repro.fastsim.workload.BatchShuffledZipfWorkload``; the cell now
  carries the ``RankSwap`` stream every other shifting cell carries;
* ``trace:<path>`` cells — the key spells ``QueryTrace`` / ``QueryEvent``
  by module path, and the module moved into ``repro.workloads``.

Keys that could not exist before it: any stream whose schedule is
exhausted or unbounded (``stationary``, ``diurnal``, a
``FlashCrowd(hot_for=inf)``) holds ``math.inf``, which
``store.keys.canonical`` used to refuse — ``runner adaptivity-tracking
--store X`` died on its first key. The second half of this module is the
regression test for that.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.analysis.zipf import ZipfDistribution
from repro.experiments import api
from repro.experiments.execution import Execution
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import parallel
from repro.fastsim.parallel import FastSimJob, job_key, resolve_jobs
from repro.store.keys import content_key
from repro.workloads import WORKLOAD_MODEL_NAMES, StationaryZipf, record_trace

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_job_keys.json").read_text()
)


class _Captured(Exception):
    pass


def resolved_jobs(name: str, **overrides: object) -> list[FastSimJob]:
    """The resolved kernel jobs ``run(name, ...)`` would execute."""
    cells = []

    def capture(self, batch):
        cells.extend(batch)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Execution, "execute", capture)
        with pytest.raises(_Captured):
            api.run(name, engine="vectorized", **overrides)
    return resolve_jobs([cell.fastsim_job() for cell in cells])


def _tracking_job(workload: str) -> FastSimJob:
    selection, _oracle = resolved_jobs(
        "adaptivity-tracking", scale=0.02, duration=120.0, workload=workload
    )
    return selection


def test_default_sweep_cell_keys_are_the_parents():
    jobs = resolved_jobs("sweep", scale=8.0)
    assert len(jobs) == 18
    for label, index in (("first", 0), ("middle", 9), ("last", 17)):
        assert jobs[index].workload is None
        assert (
            job_key(jobs[index])
            == PINNED[f"sweep --scale 8 [{label}: cell {index}]"]
        )


def test_churned_cell_key_is_the_parents():
    churned = [
        job for job in resolved_jobs("churn", scale=0.02)
        if job.churn is not None and job.churn.enabled
    ]
    assert churned[0].churn_costs is not None
    assert (
        job_key(churned[0])
        == PINNED["churn --scale 0.02 [first churned cell]"]
    )


@pytest.mark.parametrize("preset", ("rank-swap", "gradual-drift", "flash-crowd"))
def test_model_workload_cell_keys_are_the_parents(preset):
    assert job_key(_tracking_job(preset)) == PINNED[
        "adaptivity-tracking --scale 0.02 --duration 120 "
        f"--workload {preset} [partialSelection]"
    ]


def test_replicate_key_is_the_parents():
    """A replicate payload is keyed by its seed's parameter set, and
    ``ExperimentParams.to_dict`` leaves unset fields out, so removing a
    field nobody set re-keys no default payload. The kind's rev moved
    (1 -> 2, series kept in order), and nothing else: at rev 1 the key
    is the pinned one."""
    contexts = []

    def capture(units, *args, **kwargs):
        contexts.extend(units)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "fan_out", capture)
        with pytest.raises(_Captured):
            api.run("sim", engine="vectorized", scale=0.02, replicates=2)
    assert contexts[0].seed == 0
    inputs = api._replicate_inputs(contexts[0])
    assert content_key("replicate", inputs, schema_rev=1) == (
        PINNED["replicate: sim --engine vectorized --scale 0.02 "
               "--replicates 2 [seed 0]"]
    )


def test_job_precision_is_not_an_argument():
    with pytest.raises(TypeError):
        FastSimJob(simulation_scenario(scale=0.02), precision="wide")


# ----------------------------------------------------------------------
# Every workload is keyable (the ``inf`` defect)
# ----------------------------------------------------------------------
def test_every_preset_and_a_trace_are_keyable(tmp_path):
    params = simulation_scenario(scale=0.02)
    trace_path = tmp_path / "trace.jsonl"
    record_trace(
        StationaryZipf().build(
            ZipfDistribution(params.n_keys, params.alpha),
            np.random.default_rng(5),
        ),
        duration=120.0,
        queries_per_round=3,
    ).save(trace_path)
    keys = {
        name: job_key(_tracking_job(name))
        for name in (*WORKLOAD_MODEL_NAMES, f"trace:{trace_path}")
    }
    assert len(set(keys.values())) == len(keys)
    # ... and a key is a function of the job, not of the process.
    assert keys["diurnal"] == job_key(_tracking_job("diurnal"))


def test_default_tracking_run_resumes_from_its_store(tmp_path):
    """All four presets, no ``workload=``: what ``runner
    adaptivity-tracking --store X`` runs. A rerun is one figure lookup;
    ``adaptivity-lag`` (its own figure, the same eight cells) loads every
    cell by key."""
    overrides = dict(
        engine="vectorized", scale=0.02, duration=120.0,
        store=str(tmp_path / "tracking.sqlite"),
    )

    def profiled(name="adaptivity-tracking"):
        obs.enable()
        try:
            result = api.run(name, **overrides)
        finally:
            obs.disable()
        return result.figure, result.telemetry["counters"]

    first, cold = profiled()
    assert cold["cache.store.sweep_cell.miss"] == 8
    assert cold["kernel.runs"] == 8
    second, warm = profiled()
    assert warm["cache.store.replicate.hit"] == 1
    assert not [name for name in warm if "sweep_cell" in name]
    assert warm.get("kernel.runs", 0) == 0
    assert (second.x_values, second.series) == (first.x_values, first.series)
    _, lag = profiled("adaptivity-lag")
    assert lag["cache.store.replicate.miss"] == 1
    assert lag["cache.store.sweep_cell.hit"] == 8
    assert lag.get("cache.store.sweep_cell.miss", 0) == 0
    assert lag.get("kernel.runs", 0) == 0
