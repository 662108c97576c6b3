"""Multi-process execution of independent fastsim jobs.

One kernel run is already vectorized; a *figure* is many kernel runs —
sweep cells, replicate seeds, one run per strategy — and those are
embarrassingly parallel. This module fans a list of picklable
:class:`FastSimJob` specs over a :class:`concurrent.futures.ProcessPoolExecutor`:

* per-op costs are resolved **once in the parent** (:func:`resolve_jobs`)
  at exactly the DHT size the kernel reads off the strategy's policy
  (:func:`~repro.fastsim.kernel.strategy_setup`), then shipped inside the
  job spec — N workers never rebuild the calibration substrate, and the
  parent's calibrations (``obs.counted_cache``s in
  :mod:`repro.fastsim.compare`, read through the artifact store when one
  is active) stay warm across repeated calls;
* workers execute nothing but kernel runs of the fully-resolved specs,
  so the per-job pickle payload is a handful of frozen dataclasses plus
  the report coming back;
* jobs that differ only in keyTtl run as the lanes of one kernel
  (:func:`units`): one query stream, one origin draw and one index plane
  for all of them, each lane's report equal to its job's run alone;
* one fan-out primitive (:func:`fan_out`) owns the only process pool in
  ``src/``: :func:`run_many` feeds it kernel jobs, the Experiment API
  feeds it replicate seeds; ``workers=1`` is its in-process case (same
  results, no fork cost) and ``0`` means one worker per CPU.

Everything in a job spec must pickle: :class:`ScenarioParameters`,
:class:`PdhtConfig`, :class:`PerOpCosts`, :class:`ChurnOpCosts` and
:class:`ChurnConfig` are frozen dataclasses and
:class:`~repro.fastsim.workload.BatchWorkload` instances (numpy
``Generator`` included) pickle by value — but a workload with an open
file handle or a lambda hook would not. Results come back in job order.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from repro import obs
from repro.obs import events as obs_events
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import selection_columns
from repro.analysis.zipf import (
    GUIDE_MIN_DRAW, ZipfDistribution, build_guide, rank_probabilities,
)
from repro.errors import ParameterError
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.kernel import FastSimKernel, PerOpCosts, strategy_setup
from repro.fastsim.metrics import FastSimReport
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig

__all__ = [
    "FastSimJob",
    "job_key",
    "pack_jobs",
    "resolve_jobs",
    "resolve_worker_count",
    "run_many",
]


#: FastSimJob fields that are execution details rather than identity
#: (invariant RL104). Empty on purpose: the job *is* the artifact key —
#: :func:`job_key` hashes the whole dataclass, so every field must
#: affect the result. Parallelism knobs (worker counts, shared-memory
#: toggles) live outside the job, in :func:`run_many`'s arguments.
EXECUTION_ONLY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FastSimJob:
    """One picklable kernel run: the arguments of
    :func:`~repro.fastsim.kernel.run_fastsim`, as data."""

    params: ScenarioParameters
    strategy: str = "partialSelection"
    seed: int = 0
    duration: float = 240.0
    config: Optional[PdhtConfig] = None
    workload: Optional[BatchWorkload] = None
    churn: Optional[ChurnConfig] = None
    costs: Optional[PerOpCosts] = None
    churn_costs: Optional[ChurnOpCosts] = None
    content_refresh_period: Optional[float] = None
    window: float = 0.0
    #: Always ``"wide"`` and not an argument: the kernel has one state
    #: layout. It stays a field only so that the store keys built from a
    #: job — and so existing stores — do not change.
    precision: str = field(default="wide", init=False)

    def kernel(self) -> FastSimKernel:
        """This job's kernel, built in the current process.

        A workload staged by :func:`pack_jobs` has its
        :class:`~repro.fastsim.shm.SharedArrayRef` placeholders mapped
        back in as read-only views first (cached per process, so a reused
        pool worker attaches each segment once); any other workload
        passes through untouched. Before :mod:`~repro.fastsim.shm` is
        loaded no placeholder can exist, so there is nothing to map.
        """
        workload = self.workload
        shm = sys.modules.get("repro.fastsim.shm")
        if shm is not None:
            workload = shm.restore_arrays(workload)
        return FastSimKernel(
            self.params,
            config=self.config,
            strategy=self.strategy,
            seed=self.seed,
            workload=workload,
            churn=self.churn,
            costs=self.costs,
            churn_costs=self.churn_costs,
            content_refresh_period=self.content_refresh_period,
        )

    def run(self) -> FastSimReport:
        """Execute this job in the current process."""
        return self.kernel().run(self.duration, window=self.window)


def resolve_worker_count(jobs: int) -> int:
    """Normalise a ``--jobs`` value: 0 = one worker per usable CPU.

    Usable means the CPUs this process may run on (``taskset``, a cgroup
    cpuset, ``sched_setaffinity``), not the machine's; platforms without
    an affinity call fall back to ``os.cpu_count()``.
    """
    if jobs < 0:
        raise ParameterError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return jobs


def resolve_jobs(jobs: Sequence[FastSimJob]) -> list[FastSimJob]:
    """Fill in every job's per-op costs in the calling process.

    This is the design decision that makes the pool worthwhile: cost
    resolution is the expensive, cacheable part (below the calibration
    limit it builds and probes a real event-engine substrate), so it runs
    once here — through the same :func:`~repro.fastsim.compare.resolve_costs`
    the kernel would call, whose counted caches deduplicate identical
    scenarios across jobs — and the resolved frozen dataclasses ride
    along in the spec. Workers just simulate.

    The Eq. 14-17 outcomes the policies read are planned first, one
    keyTtl column per scenario (:func:`selection_columns`): a column's
    keyTtls share the keyTtl-independent part of the model, churned or
    not, and all the columns two n-key buffers.
    """
    from repro.fastsim.compare import resolve_costs

    configs = [job.config or PdhtConfig.from_scenario(job.params) for job in jobs]
    columns: dict[ScenarioParameters, dict[float, None]] = {}
    for job, config in zip(jobs, configs):
        columns.setdefault(job.params, {})[config.key_ttl] = None
    selection_columns(columns.items())
    resolved: list[FastSimJob] = []
    for job, config in zip(jobs, configs):
        policy = strategy_setup(job.params, config, job.strategy)
        costs, churn_costs = resolve_costs(
            job.params, config, policy.num_members, job.seed, job.churn,
            job.workload, job.costs, job.churn_costs,
        )
        resolved.append(
            replace(
                job, config=config, costs=costs, churn_costs=churn_costs
            )
        )
    return resolved


def job_key(job: FastSimJob) -> str:
    """The artifact-store content key of a fully-resolved job.

    Key a job only after :func:`resolve_jobs`: the resolved spec is
    self-contained — scenario, config, strategy, seed, duration, frozen
    workload (rng state included), churn, and the *resolved* per-op
    costs all land in the hash, so a cost change (recalibration, new
    cost model) re-keys exactly the cells it affects. The envelope adds
    ``repro.__version__`` and the ``sweep_cell`` schema rev on top.
    """
    from repro.store.keys import content_key

    return content_key("sweep_cell", {"job": job})


def pack_jobs(
    jobs: Sequence[FastSimJob], arena: "ShmArena"
) -> list[FastSimJob]:
    """Stage every job's large workload arrays into shared memory.

    Returns job copies whose workloads carry
    :class:`~repro.fastsim.shm.SharedArrayRef` handles instead of the
    big arrays (Zipf cumulative tables, shifted rank→key mappings,
    trace streams); the originals are untouched. Jobs with no explicit
    workload get the kernel's default stationary workload materialised
    here — bit-identically, from the job seed's
    :meth:`~repro.fastsim.inputs.RoundInputs.workload` — so its
    table ships by handle too; the Zipf distribution is shared by the
    jobs of one ``(n_keys, alpha)``, one segment per distinct table. A
    stationary stream's identity mapping is ``None``: nothing to ship.

    Call only on *resolved* jobs, after :func:`job_key` has been taken:
    packing is an execution detail and must never enter a job's artifact
    identity.
    """
    from repro.fastsim import shm

    zipfs: dict[tuple[int, float], ZipfDistribution] = {}
    packed: list[FastSimJob] = []
    for job in jobs:
        workload = job.workload
        if workload is None:
            cell = (job.params.n_keys, job.params.alpha)
            zipf = zipfs.get(cell)
            if zipf is None:
                zipf = zipfs[cell] = ZipfDistribution(*cell)
            workload = RoundInputs(job.seed).workload(job.params, zipf)
        packed.append(
            replace(job, workload=shm.extract_arrays(workload, arena))
        )
    return packed


def _queries(job: FastSimJob) -> float:
    """The queries ``job`` expects to draw over its run."""
    return job.params.network_query_rate * job.duration


def _build_guides(jobs: Sequence[FastSimJob]) -> None:
    """Build the Zipf guide table of every ``(n_keys, alpha)`` that a job
    on the default workload will draw in bulk, in this process, now.

    :func:`run_many` calls it before the first kernel allocates when it
    runs the kernels itself, so no table lands among a kernel's arrays.
    A pool's workers build theirs inside their first large draw, as any
    other draw does: tables built in the parent before the fork add
    their pages to every worker's peak RSS (+1.4 MiB on ``sweep_pool``),
    where a worker's own build reuses heap a freed kernel left. A job
    draws in bulk when it expects at least
    :data:`~repro.analysis.zipf.GUIDE_MIN_DRAW` queries. The pairs are
    built last to first, so the one-entry CDF memo a build leaves is the
    first job's, which the first kernel then finds there.
    """
    for n_keys, alpha in reversed(dict.fromkeys(
        (job.params.n_keys, job.params.alpha)
        for job in jobs
        if job.workload is None and _queries(job) >= GUIDE_MIN_DRAW
    )):
        build_guide(n_keys, alpha)


@dataclass(frozen=True)
class _Unit:
    """Jobs run as the lanes of one kernel (:func:`units`)."""

    jobs: tuple[FastSimJob, ...]

    def run(self) -> list[FastSimReport]:
        """Every job's report, in job order."""
        first, *rest = self.jobs
        kernel = first.kernel()
        for job in rest:
            kernel.add_lane(job.config, job.costs)
        kernel.run(first.duration, window=first.window)
        return kernel.reports


def units(jobs: Sequence[FastSimJob]) -> list[list[int]]:
    """Group resolved jobs into kernel units, as positions in ``jobs``.

    Jobs share a unit iff they differ only in ``config.key_ttl`` (and so
    in the members and costs resolved from it) and none has churn, a
    content refresh or an explicit workload: then every query writes its
    key whatever the keyTtl, and one query stream, one origin draw and
    one index plane serve them all. Every other job is a unit of its own.
    Units keep job order, each in the position of its first job.
    """
    grouped: dict[Any, list[int]] = {}
    for position, job in enumerate(jobs):
        alone = (
            job.churn is not None
            or job.content_refresh_period is not None
            or job.workload is not None
        )
        key = position if alone else (
            job.params, job.strategy, job.seed, job.duration, job.window,
            replace(job.config, key_ttl=0.0),
        )
        grouped.setdefault(key, []).append(position)
    return list(grouped.values())


def _pool_size(workers: int, units: int) -> int:
    """Processes a fan-out of ``units`` uses; 1 = the calling process
    alone (one worker asked for, or at most one unit to run)."""
    return 1 if workers == 1 or units <= 1 else min(workers, units)


#: The position in the usable CPUs this pool worker placed itself at
#: (:func:`_place`); ``None`` in a process that did not place itself.
_placed: Optional[int] = None


def _usable_cpus() -> tuple[int, ...]:
    """The CPUs this process may run on, in order; empty where the
    platform cannot move a process (no ``sched_setaffinity``)."""
    if not hasattr(os, "sched_setaffinity"):
        return ()
    return tuple(sorted(os.sched_getaffinity(0)))


def _place(cpus: tuple[int, ...]) -> None:
    """Pool initializer: move this worker onto a CPU of its own, then
    unpin it at once.

    A forked worker starts on its parent's CPU, and under a cpuset with
    ``sched_load_balance`` 0 the kernel never migrates a task, so two
    workers would share one core for their whole lives. Worker *i* (the
    ``-N`` suffix multiprocessing gives a child's ``Process.name``,
    consecutive within one pool) moves to ``cpus[i % len(cpus)]``, then
    restores the full set: nothing stays pinned, and a kernel that does
    balance may still move it later. ``cpus`` is the parent's usable set
    (:func:`_usable_cpus`); with fewer than two there is nowhere to go.
    """
    global _placed
    if len(cpus) < 2:
        return
    import multiprocessing

    name = multiprocessing.current_process().name
    index = (int(name.replace(":", "-").rpartition("-")[2]) - 1) % len(cpus)
    os.sched_setaffinity(0, {cpus[index]})
    os.sched_setaffinity(0, cpus)
    _placed = index


def _run_unit(
    payload: tuple[Any, bool, bool],
) -> tuple[Any, Optional[dict[str, Any]], Optional[list[dict[str, Any]]]]:
    """The pool's one worker entry: run a unit, ship its telemetry back.

    The enabled/record flags travel with the payload because pool
    workers may be fresh processes (spawn) that do not inherit the
    parent's module state. Each unit records into a fresh collector —
    pool workers are *reused* across units, so recording on into the
    previous unit's collector would leak its spans into this unit's
    snapshot and double-count on merge. Flight-recorder events likewise
    go to a per-unit :class:`~repro.obs.events.TraceSink` shipped back by
    value; the sink is replaced *unconditionally* because
    ``fork``-started workers inherit the parent's sink (shared file
    descriptor, parent pid stamp), and the first heartbeat would
    otherwise write through it.
    """
    unit, telemetry, record = payload
    sink = obs_events.TraceSink() if record else None
    obs_events.set_sink(sink)
    try:
        if not telemetry:
            return unit.run(), None, None
        obs.enable()
        obs.reset_span_stack()
        obs.set_collector(obs.Collector())
        result = unit.run()
        obs.sample_peak_rss("worker")
        snapshot = obs.collector().snapshot()
        return result, snapshot, sink.events() if sink else None
    finally:
        obs_events.set_sink(None)


def fan_out(
    units: Sequence[Any],
    workers: int,
    finish: Callable[[int, Any], None],
    progress: str,
    done: int = 0,
    weights: Optional[Sequence[int]] = None,
) -> None:
    """Run every unit's ``.run()``, handing each result to ``finish``.

    The execution primitive under :func:`run_many` (units are the jobs
    of one kernel, see :func:`units`) and the Experiment API's
    ``replicates`` (units are per-seed contexts); package-internal, and
    the only place ``src/`` builds a process pool (invariant RL108).
    ``workers`` is already resolved (:func:`resolve_worker_count`). With
    one worker, or at most one unit, everything runs in the calling
    process — its caches stay warm, its event sink is untouched.
    Otherwise units (which must pickle) spread over a pool of
    :func:`_pool_size` processes, each of which starts on a CPU of its
    own (:func:`_place`).

    ``finish(position, result)`` fires per unit in submission order, as
    each result lands rather than at pool shutdown, so the caller can
    persist completed work before a later unit fails: an exception raised
    by a unit propagates after the units ahead of it were finished.
    ``progress`` names the ``obs.progress`` series ticked per completion;
    ``done`` counts units the caller already had (store hits), which only
    offsets the tick so the series totals the caller's whole workload;
    ``weights[i]`` is how many of those unit ``i`` stands for (1 each by
    default).

    With telemetry enabled each pool worker's collector snapshot rides
    back with its result and merges into the caller's collector under the
    current span path — the pooled profile nests exactly like the
    in-process one, and merging is duplicate-safe, so the fold is
    insensitive to delivery order. With a flight-recorder sink installed
    each worker also ships the events a trace renders; the parent
    re-emits those marked ``remote``, giving trace exports per-worker
    lanes while replay still counts each measurement once (via the
    snapshot merge).
    """
    weights = weights or [1] * len(units)
    total = done + sum(weights)
    size = _pool_size(workers, len(units))
    telemetry = obs.enabled()
    obs.progress(progress, done, total=total)
    if size == 1:
        for position, unit in enumerate(units):
            finish(position, unit.run())
            done += weights[position]
            obs.progress(progress, done, total=total)
        if telemetry:
            obs.sample_peak_rss("worker")
        return
    record = telemetry and obs_events.recording()
    # Loaded here, not at import: only a fan-out over several processes
    # needs a pool. numpy.random is loaded before the fork for the same
    # reason a worker would load it: every kernel run draws.
    from concurrent.futures import ProcessPoolExecutor

    import numpy.random  # noqa: F401

    with ProcessPoolExecutor(
        max_workers=size, initializer=_place, initargs=(_usable_cpus(),)
    ) as pool:
        for position, (result, snapshot, worker_events) in enumerate(
            pool.map(_run_unit, [(unit, telemetry, record) for unit in units])
        ):
            finish(position, result)
            obs.merge_snapshot(snapshot)
            obs_events.emit_remote(worker_events)
            done += weights[position]
            obs.progress(progress, done, total=total)


def run_many(
    jobs: Sequence[FastSimJob],
    workers: int = 1,
    store: Optional[Any] = None,
    shared_memory: bool = False,
) -> list[FastSimReport]:
    """Run every job; reports return in job order.

    ``workers`` follows the CLI ``--jobs`` convention: ``1`` runs
    sequentially in-process (no pool, caches stay warm for the caller),
    ``0`` uses one worker per CPU, ``N > 1`` uses a process pool of N
    (:func:`fan_out`). Costs are resolved in the parent first
    (:func:`resolve_jobs`) either way, so sequential and parallel
    execution charge identical costs and produce identical seeded
    reports. Planning's Eq. 3 cache
    (:func:`~repro.analysis.zipf.rank_probabilities`) is cleared once
    costs are resolved when the kernels run in this process; a pool's
    parent keeps it for the workers it forks, and hands them the units
    longest first, by expected queries.

    ``shared_memory=True`` stages each pending job's large workload
    arrays into ``multiprocessing.shared_memory`` segments
    (:func:`pack_jobs`) that workers map read-only instead of receiving
    by pickle — the per-job payload stays a handful of scalars at any
    key count, and per-worker incremental memory drops to page-cache
    mappings of one shared copy. Results are bit-identical to the
    pickle path (``tests/fastsim/test_shm.py``).
    The segments live exactly as long as the fan-out: they are unlinked
    in a ``finally`` even when a worker crashes. Purely an execution
    detail — job artifact keys are computed before packing and do not
    change. Ignored when nothing is shipped (in-process execution).

    ``store`` (default: the process-wide active store, see
    :mod:`repro.store`) makes the fan-out *resumable*: each resolved
    job is content-keyed (:func:`job_key`), jobs whose report is
    already on disk are loaded instead of run, only the misses execute,
    and every fresh report is saved as it lands. An interrupted sweep
    rerun therefore recomputes zero completed cells, and any input
    change (params, seed, costs, workload state, code version) re-keys —
    and thus recomputes — exactly the affected cells.
    ``cache.store.sweep_cell.hit/.miss`` counters make resumption
    observable. Telemetry merge and ``parallel.jobs`` progress are
    :func:`fan_out`'s.
    """
    workers = resolve_worker_count(workers)
    with obs.span("parallel.resolve", jobs=len(jobs)):
        resolved = resolve_jobs(jobs)
        obs.sample_peak_rss("resolve")
    if store is None:
        from repro.store.store import active_store

        store = active_store()

    reports: list[Optional[FastSimReport]] = [None] * len(resolved)
    keys: list[Optional[str]] = [None] * len(resolved)
    if store is not None:
        for index, job in enumerate(resolved):
            keys[index] = job_key(job)
            reports[index] = store.load_report(keys[index])
    pending = [i for i, report in enumerate(reports) if report is None]
    shipped = [resolved[i] for i in pending]
    arena = None
    if shared_memory and _pool_size(workers, len(pending)) > 1:
        from repro.fastsim.shm import ShmArena

        arena = ShmArena()
    try:
        if arena is not None:
            # Staged jobs run alone: packing is per job.
            shipped = pack_jobs(shipped, arena)
            grouping = [[position] for position in range(len(shipped))]
        else:
            grouping = units(shipped)
        size = _pool_size(workers, len(grouping))
        if size == 1:
            # Eq. 3 is planning's, and planning is done: no kernel of
            # this process runs beside it. A pool's parent keeps it, for
            # the workers to sum their CDFs from.
            rank_probabilities.cache_clear()
            _build_guides(shipped)
        else:
            # Longest first, so no worker starts the longest unit last.
            grouping.sort(key=lambda unit: -_queries(shipped[unit[0]]))

        def _finish(position: int, unit_reports: list[FastSimReport]) -> None:
            for index, report in zip(grouping[position], unit_reports):
                reports[pending[index]] = report
                if store is not None:
                    store.save("sweep_cell", keys[pending[index]], report)

        with obs.span(
            "parallel.run_many",
            jobs=len(resolved),
            cached=len(resolved) - len(pending),
            workers=size,
            shared_memory=arena is not None,
        ):
            fan_out(
                [
                    _Unit(tuple(shipped[i] for i in unit))
                    for unit in grouping
                ],
                size, _finish, "parallel.jobs",
                done=len(resolved) - len(pending),
                weights=[len(unit) for unit in grouping],
            )
    finally:
        if arena is not None:
            arena.close()
    return reports  # type: ignore[return-value]
