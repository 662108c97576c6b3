"""repro.fastsim — vectorized batch simulation of million-peer PDHT runs.

The discrete-event engine (:mod:`repro.sim` + :mod:`repro.pdht`) executes
one Python callback per query, which caps realistic runs at a few thousand
peers. The paper's headline results are aggregate statistics over Zipf
query streams — exactly the workload shape that vectorizes — so this
subsystem re-implements the Section 5 simulation semantics as round-stepped
numpy batch operations:

* :mod:`repro.fastsim.state` — array-of-peers network state;
* :mod:`repro.fastsim.workload` — the query stream a
  :mod:`repro.workloads` model realises (``model.build(zipf, rng)``):
  batched Zipf sampling, with ``next_boundary`` keeping whole shift-free
  segments on the one-``draw_into`` path;
* :mod:`repro.fastsim.kernel` — the batch execution kernel
  (query -> hit/miss -> TTL refresh -> eviction -> cost accounting) for
  all four Fig. 1 strategies under one keyTtl per lane (a kernel runs
  the jobs of a keyTtl column as lanes), plus per-op cost models;
* :mod:`repro.fastsim.inputs` — :class:`~repro.fastsim.inputs.RoundInputs`,
  the one owner of a run's random inputs (query counts, the default
  workload stream, DHT members, churn flips, origins and resolution
  draws) and of which seed stream feeds each;
* :mod:`repro.fastsim.churncosts` — availability-dependent per-op costs
  (walk lengthening / TTL exhaustion through the fragmented online
  overlay, shrunken floods, turnover misses) with structural
  Monte-Carlo estimators for beyond-calibration scales;
* :mod:`repro.fastsim.metrics` — aggregate hit-rate/cost/storage series
  plus content-version staleness;
* :mod:`repro.fastsim.compare` — per-op cost calibration against the
  event engine (with and without churn) and cross-engine agreement
  checks (aggregates, churn cost, staleness fraction);
* :mod:`repro.fastsim.parallel` — multi-process fan-out of independent
  kernel jobs (sweep cells, replicate seeds, one run per strategy) with
  per-op costs resolved once in the parent, and jobs that differ only
  in keyTtl grouped into one kernel;
* :mod:`repro.fastsim.precision` — the one module that names the
  kernel's dtypes (float64 write times and int64 versions, the layout the
  pinned captures were recorded under);
* :mod:`repro.fastsim.shm` — shared-memory staging of large read-mostly
  job arrays so pool workers map one copy instead of each unpickling
  their own.

Select it anywhere the experiment harness runs simulations via
``engine="vectorized"`` (see :mod:`repro.experiments.scenario`).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fastsim.state": ("FastSimState",),
    "repro.fastsim.workload": ("BatchWorkload",),
    "repro.fastsim.kernel": ("PerOpCosts", "FastSimKernel", "run_fastsim"),
    "repro.fastsim.churncosts": (
        "ChurnOpCosts",
        "structural_flood_cost",
        "structural_walk_costs",
    ),
    "repro.fastsim.metrics": ("FastSimReport", "WindowRecorder"),
    "repro.fastsim.parallel": (
        "FastSimJob",
        "pack_jobs",
        "resolve_jobs",
        "resolve_worker_count",
        "run_many",
    ),
    "repro.fastsim.shm": ("ShmArena", "SharedArrayRef", "leaked_segments"),
    "repro.fastsim.compare": (
        "EngineAgreement",
        "CALIBRATION_LIMIT",
        "calibrate_costs",
        "calibrate_churn_costs",
        "calibration_cache_stats",
        "churn_config_for_availability",
        "churn_costs_for",
        "costs_for",
        "compare_engines",
        "compare_engines_churn",
        "compare_engines_staleness",
        "staleness_probe_event",
        "staleness_probe_fast",
    ),
})
