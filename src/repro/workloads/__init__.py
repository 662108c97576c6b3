"""repro.workloads — what the network is asked: the query stream.

The paper's central claim is *query-adaptivity*: the Section 5 selection
strategy tracks the Section 4 Zipf(1.2) query distribution as it changes.
A workload is defined once, as a frozen, seedable
:class:`~repro.workloads.models.WorkloadModel`:

====================  ==================================================
model                 what changes
====================  ==================================================
``StationaryZipf``    nothing — the paper's baseline stream
``RankSwap``          the whole rank -> key mapping, once (the
                      Section 5.2 adaptivity shift)
``GradualDrift``      head-biased transposition walk on the mapping
                      every ``period`` rounds — popularity drifts
``FlashCrowd``        a tail key is promoted above rank 1 and demoted
                      ``hot_for`` rounds later — a transient hot key
``DiurnalCycle``      the query *rate* (sinusoidal day/night cycle)
``TraceReplay``       nothing is sampled — a recorded
                      :class:`~repro.workloads.trace.QueryTrace` replays
                      verbatim (JSON or JSONL)
====================  ==================================================

``model.build(zipf, rng)`` realises a model as the one mutable stream
both engines draw from, a
:class:`~repro.fastsim.workload.BatchWorkload`: the event driver takes
it a round at a time (``draw``), the vectorized kernel in segment-batched
blocks (``draw_rounds``, jumping between the model's ``next_boundary``
times). Under churn, the kernel's per-op cost calibration is
rank-permutation aware: it drives its probe with the same model (see
:func:`repro.fastsim.compare.calibrate_churn_costs`).

Experiment integration: every model has a preset name
(:data:`~repro.workloads.models.WORKLOAD_MODEL_NAMES`,
:func:`~repro.workloads.models.model_from_name`) usable as
``run("adaptivity-tracking", workload="gradual-drift")``, the sweep
grid's ``GridAxes.workloads`` axis, and the runner's ``--workload`` flag
(``trace:<path>`` replays a saved trace).
"""

from repro._exports import lazy_exports

# Eager on purpose: importing the package loads every BatchWorkload
# subclass it defines, so a walk of BatchWorkload.__subclasses__() finds
# them (benchmarks/e2e wraps their draw methods that way).
from repro.workloads import adapters  # noqa: F401

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.models": (
        "WorkloadModel",
        "StationaryZipf",
        "RankSwap",
        "GradualDrift",
        "FlashCrowd",
        "DiurnalCycle",
        "TraceReplay",
        "WORKLOAD_MODEL_NAMES",
        "model_from_name",
        "validate_workload_name",
    ),
    "repro.workloads.adapters": ("ModelBatchWorkload", "BatchTraceWorkload"),
    "repro.workloads.trace": ("QueryEvent", "QueryTrace", "record_trace"),
})
