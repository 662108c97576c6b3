"""Composable non-stationary workload models.

A :class:`WorkloadModel` is a *declarative, engine-agnostic* description
of how a query stream evolves: when the rank -> key popularity mapping
changes (``next_boundary`` / ``apply``) and how the query rate varies
over time (``rate_multiplier``). Models are small frozen dataclasses —
seedable (all randomness comes from the generator the consuming engine
hands to :meth:`WorkloadModel.apply`), hashable (so calibration caches
can key on them) and picklable (so parallel job specs can ship them).

The segment contract
--------------------

:meth:`WorkloadModel.build` realises a model as one mutable stream
(:class:`repro.workloads.adapters.ModelBatchWorkload`) that both engines
consume as a sequence of *segments*: maximal spans of rounds between
mapping boundaries, each drawn under one frozen ``(counts,
rank_to_key)`` pair. The event driver walks the segments one round at a
time (``draw``); the vectorized kernel draws whole segments in one
``draw_into`` call (``draw_rounds``). Boundaries are applied by the one
stream through :meth:`WorkloadModel.apply`, so a shared generator state
yields the same realized mapping on either engine.

The models
----------

* :class:`StationaryZipf` — the paper's stationary stream (no
  boundaries; the one-segment degenerate case);
* :class:`RankSwap` — one wholesale re-draw of the rank -> key mapping
  at ``shift_time`` (the Section 5.2 adaptivity shift);
* :class:`GradualDrift` — a head-biased random transposition walk on
  the mapping every ``period`` rounds: popularity drifts instead of
  jumping;
* :class:`FlashCrowd` — a transient hot key: a tail key is promoted to
  rank 1 at ``at`` and demoted back ``hot_for`` rounds later;
* :class:`DiurnalCycle` — a sinusoidal query-rate modulation (mapping
  boundaries: none);
* :class:`TraceReplay` — replay a recorded
  :class:`~repro.workloads.trace.QueryTrace` verbatim (counts and keys
  come from the trace, not from sampling).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.workloads.trace import QueryTrace

__all__ = [
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
]


class WorkloadModel(abc.ABC):
    """Declarative description of a (possibly non-stationary) workload.

    Subclasses override the boundary schedule (:meth:`next_boundary` /
    :meth:`apply`) for mapping changes and/or
    :meth:`rate_multiplier` for rate changes. The default implementations
    describe the stationary case, so a model only overrides what varies.
    """

    #: Registry slug (set by every concrete model).
    name: str = "abstract"

    # -- mapping schedule ----------------------------------------------
    def next_boundary(self, after: float) -> float:
        """Earliest mapping-change time strictly greater than ``after``.

        ``math.inf`` means the mapping never changes again. Pure in
        ``after`` — a model carries no mutable state; the stream built
        from it tracks which boundaries it has already applied.
        """
        return math.inf

    def apply(
        self, at: float, mapping: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The new rank -> key mapping after the boundary at ``at``.

        May consume randomness; must *return* the mapping (possibly the
        input array) rather than mutate it in place, so streams can
        share segments safely.
        """
        return mapping

    # -- rate schedule -------------------------------------------------
    def rate_multiplier(self, now: float) -> float:
        """Query-rate factor at time ``now`` (1.0 = the scenario rate)."""
        return 1.0

    def rate_multipliers(self, times: np.ndarray) -> np.ndarray | None:
        """Vectorized :meth:`rate_multiplier`; ``None`` marks the
        stationary-rate case so batch consumers can keep their exact
        historical ``poisson(rate, size=n)`` draw."""
        return None

    # -- calibration ---------------------------------------------------
    @property
    def calibration_model(self) -> "WorkloadModel | None":
        """The model the churn-cost calibration should drive its probe
        workload with, or ``None`` for the stationary default.

        Rank-permuting models return ``self`` (they must be hashable so
        the calibration cache can key on them); models that never touch
        the mapping return ``None`` — their per-op costs are the
        stationary ones.
        """
        return None

    # -- realisation ---------------------------------------------------
    def build(self, zipf, rng: np.random.Generator):
        """The :class:`~repro.fastsim.workload.BatchWorkload` drawing this
        model's queries from ``rng`` — the stream either engine runs."""
        from repro.workloads.adapters import ModelBatchWorkload

        return ModelBatchWorkload(self, zipf, rng)


@dataclass(frozen=True)
class StationaryZipf(WorkloadModel):
    """The paper's stationary Zipf stream: no boundaries, constant rate."""

    name: str = field(default="stationary", init=False)


@dataclass(frozen=True)
class RankSwap(WorkloadModel):
    """Wholesale popularity change: the mapping is re-drawn once.

    The Section 5.2 adaptivity shift: at ``shift_time`` every
    previously hot key goes cold at once — the hardest case for the TTL
    selection algorithm. Consumes exactly one ``rng.permutation`` draw.
    """

    shift_time: float

    name: str = field(default="rank-swap", init=False)

    def __post_init__(self) -> None:
        if self.shift_time < 0:
            raise ParameterError(
                f"shift_time must be >= 0, got {self.shift_time}"
            )

    def next_boundary(self, after: float) -> float:
        return self.shift_time if after < self.shift_time else math.inf

    def apply(self, at, mapping, rng):
        return rng.permutation(mapping.size)

    @property
    def calibration_model(self):
        return self


@dataclass(frozen=True)
class GradualDrift(WorkloadModel):
    """Popularity drifts: a transposition walk on the mapping.

    Every ``period`` rounds, ``max(1, round(swap_fraction * n_keys))``
    adjacent transpositions are applied to the rank -> key mapping, at
    positions biased toward the head (position ``floor(n * u**head_bias)``
    for uniform ``u``), so the *hot* set genuinely wanders instead of the
    walk diffusing invisibly through the tail. Each step is local — no
    key moves more than one rank per swap — which is the gradual
    counterpart of :class:`RankSwap`'s jump.
    """

    period: float = 50.0
    swap_fraction: float = 0.02
    head_bias: float = 2.0

    name: str = field(default="gradual-drift", init=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ParameterError(f"period must be > 0, got {self.period}")
        if not 0.0 < self.swap_fraction <= 1.0:
            raise ParameterError(
                f"swap_fraction must be in (0, 1], got {self.swap_fraction}"
            )
        if self.head_bias < 1.0:
            raise ParameterError(
                f"head_bias must be >= 1, got {self.head_bias}"
            )

    def next_boundary(self, after: float) -> float:
        if after < self.period:
            return self.period
        k = math.floor(after / self.period) + 1
        boundary = k * self.period
        if boundary <= after:
            # Float guard for non-representable periods (0.3, ...):
            # k * period can round to `after` itself, and a boundary
            # that is not strictly greater would pin the stream's
            # cursor to a fixpoint.
            boundary = (k + 1) * self.period
        return boundary

    def apply(self, at, mapping, rng):
        n = mapping.size
        if n < 2:
            return mapping
        swaps = max(1, int(round(self.swap_fraction * n)))
        positions = np.minimum(
            (rng.random(swaps) ** self.head_bias * (n - 1)).astype(np.int64),
            n - 2,
        )
        mapping = mapping.copy()
        # Swapped through a memoryview: Python ints in and out, where
        # indexing the array boxes a numpy scalar per read.
        view = memoryview(mapping)
        for i in positions.tolist():
            view[i], view[i + 1] = view[i + 1], view[i]
        return mapping

    @property
    def calibration_model(self):
        return self


@dataclass(frozen=True)
class FlashCrowd(WorkloadModel):
    """A transient hot key: breaking news that stops being news.

    At ``at`` the key currently holding ``cold_rank`` (default: the very
    tail) is injected above rank 1 — everyone else shifts down one rank.
    ``hot_for`` rounds later the crowd disperses and the key is demoted
    back to ``cold_rank``; with ``hot_for=math.inf`` the promotion is
    permanent.
    """

    at: float
    hot_for: float = math.inf
    cold_rank: int | None = None

    name: str = field(default="flash-crowd", init=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ParameterError(f"at must be >= 0, got {self.at}")
        if self.hot_for <= 0:
            raise ParameterError(f"hot_for must be > 0, got {self.hot_for}")
        if self.cold_rank is not None and self.cold_rank < 1:
            raise ParameterError(
                f"cold_rank must be >= 1, got {self.cold_rank}"
            )

    @property
    def _end(self) -> float:
        return self.at + self.hot_for

    def next_boundary(self, after: float) -> float:
        if after < self.at:
            return self.at
        if after < self._end:
            return self._end
        return math.inf

    def _resolved_cold_rank(self, n: int) -> int:
        rank = n if self.cold_rank is None else self.cold_rank
        if not 1 <= rank <= n:
            raise ParameterError(
                f"cold_rank must be in [1, {n}], got {rank}"
            )
        return rank

    def apply(self, at, mapping, rng):
        cold = self._resolved_cold_rank(mapping.size)
        if at == self.at:  # promote: inject above rank 1
            promoted = mapping[cold - 1]
            rest = np.delete(mapping, cold - 1)
            return np.concatenate(([promoted], rest))
        # Demote: the crowd disperses, the key returns to its cold rank.
        hot, rest = mapping[0], mapping[1:]
        return np.concatenate((rest[: cold - 1], [hot], rest[cold - 1 :]))

    @property
    def calibration_model(self):
        return self


@dataclass(frozen=True)
class DiurnalCycle(WorkloadModel):
    """Sinusoidal query-rate modulation (day/night traffic).

    The rank -> key mapping never changes; the per-round query rate is
    scaled by ``1 + amplitude * sin(2 pi (t - phase) / period)``, clamped
    at zero.
    """

    period: float = 600.0
    amplitude: float = 0.5
    phase: float = 0.0

    name: str = field(default="diurnal", init=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ParameterError(f"period must be > 0, got {self.period}")
        if self.amplitude < 0:
            raise ParameterError(
                f"amplitude must be >= 0, got {self.amplitude}"
            )

    def rate_multiplier(self, now: float) -> float:
        return max(
            0.0,
            1.0
            + self.amplitude
            * math.sin(2.0 * math.pi * (now - self.phase) / self.period),
        )

    def rate_multipliers(self, times: np.ndarray) -> np.ndarray | None:
        return np.maximum(
            0.0,
            1.0
            + self.amplitude
            * np.sin(2.0 * np.pi * (times - self.phase) / self.period),
        )


@dataclass(frozen=True, eq=False)
class TraceReplay(WorkloadModel):
    """Replay a recorded query trace verbatim.

    Counts per round and the queried ``(rank, key)`` pairs come from the
    trace (no sampling, no mapping), so every strategy and both engines
    see the *same* queries — the standard trace-driven-simulation
    workflow. Build one from a live workload with
    :func:`repro.workloads.trace.record_trace`, or load a saved trace
    (JSON or JSONL) via :meth:`from_file`.
    """

    trace: QueryTrace

    name: str = field(default="trace-replay", init=False)

    def __post_init__(self) -> None:
        if self.trace.n_keys <= 0:
            raise ParameterError(
                "TraceReplay needs a trace with n_keys set (the key "
                "universe the trace was recorded over)"
            )

    @classmethod
    def from_file(cls, path) -> "TraceReplay":
        return cls(QueryTrace.load(path))

    def build(self, zipf, rng):
        from repro.workloads.adapters import BatchTraceWorkload

        return BatchTraceWorkload(self, zipf, rng)


#: Preset names accepted by ``--workload`` / ``ExperimentParams.workload``
#: (plus ``trace:<path>`` for recorded traces).
WORKLOAD_MODEL_NAMES = (
    "stationary",
    "rank-swap",
    "gradual-drift",
    "flash-crowd",
    "diurnal",
)


def validate_workload_name(name: str) -> str:
    """Check a preset/trace workload name; returns it unchanged.

    The single source of truth for what ``--workload`` /
    ``ExperimentParams.workload`` / ``GridAxes.workloads`` accept:
    a :data:`WORKLOAD_MODEL_NAMES` preset or ``trace:<path>`` (the path
    is resolved lazily, at build time).
    """
    if not isinstance(name, str):
        raise ParameterError(
            f"workload must be a model name, got {name!r}"
        )
    if name not in WORKLOAD_MODEL_NAMES and not name.startswith("trace:"):
        raise ParameterError(
            f"unknown workload model {name!r}; known: "
            f"{', '.join(WORKLOAD_MODEL_NAMES)} or trace:<path>"
        )
    return name


def model_from_name(
    name: str,
    duration: float,
    shift_at: float | None = None,
) -> WorkloadModel:
    """Build a preset model scaled to an experiment's duration.

    ``shift_at`` overrides the single-shift models' boundary (default:
    half the duration). ``trace:<path>`` loads a recorded trace (JSON or
    JSONL).
    """
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")
    validate_workload_name(name)
    shift = duration / 2.0 if shift_at is None else shift_at
    if name.startswith("trace:"):
        return TraceReplay.from_file(name[len("trace:") :])
    if name == "stationary":
        return StationaryZipf()
    if name == "rank-swap":
        return RankSwap(shift_time=shift)
    if name == "gradual-drift":
        return GradualDrift(period=max(1.0, round(duration / 24.0)))
    if name == "flash-crowd":
        return FlashCrowd(at=shift, hot_for=max(1.0, duration / 4.0))
    return DiurnalCycle(period=max(2.0, duration / 2.0))
