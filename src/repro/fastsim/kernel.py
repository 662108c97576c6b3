"""Round-stepped batch execution of the PDHT simulation semantics.

Where the event engine dispatches one Python callback per query, the
kernel processes a whole round's Zipf query batch with numpy array
operations: liveness test against the per-key expiry array, TTL refresh of
the hit set, unique-key miss resolution, cost accounting — five array ops
per round regardless of how many million peers the scenario has.

Faithfulness to :class:`~repro.pdht.network.PdhtNetwork` (Section 5.1):

* hit iff the key's latest replica expiry is strictly after ``now`` — an
  entry reaching its expiry instant is already dead, exactly like
  :class:`~repro.pdht.ttl_cache.TtlKeyStore`'s ``expires_at <= now`` miss;
* a hit rearms the expiration clock to ``now + keyTtl``;
* a miss floods the replica subnetwork, broadcasts, and (when resolved)
  re-inserts the key, so later queries for it *in the same round* hit —
  reproduced exactly via unique-key decomposition of each round's batch;
* per-operation message costs (DHT lookup, replica flood, broadcast walk,
  gateway bootstrap, routing maintenance) are charged per event in the
  same :class:`~repro.sim.metrics.MessageCategory` taxonomy. Costs come
  either from the closed-form Eq. 6-8/16 expressions
  (:meth:`PerOpCosts.analytical`) or measured off a real event-engine
  substrate (:func:`repro.fastsim.compare.calibrate_costs`).

Churn runs against an availability-dependent per-operation cost model
(:class:`~repro.fastsim.churncosts.ChurnOpCosts`): broadcast walks charge
their *measured* resolved/failed costs through the online overlay
(lengthened walks, TTL exhaustion through fragmented components), floods
charge what actually propagates through the online part of the replica
group, a calibrated fraction of hits pays the responsible-peer-turnover
flood, a calibrated fraction of live-key queries misses outright, and
resolution draws a per-round replica-availability vector
(Binomial(repl, instantaneous online fraction)) combined with the
measured walk-failure probability. Below
:data:`~repro.fastsim.compare.CALIBRATION_LIMIT` peers the model is
measured off a churned event-engine substrate
(:func:`~repro.fastsim.compare.calibrate_churn_costs`); beyond it the
structural Monte-Carlo estimators of :mod:`repro.fastsim.churncosts`
take over — the same calibrated-then-analytical split ``costs_for``
uses. Walk costs are charged in expectation over the resolution draw
(Rao-Blackwellised), so kernel cost totals carry no resolution-sampling
noise on top of the event engine's.

Staleness is first-class batch state: every key carries a payload
version (bumped by owner refreshes, ``content_refresh_period`` or
:meth:`FastSimState.bump_versions`) and an indexed version captured on
(re-)insert; hits served from an entry whose indexed version lags count
into :attr:`FastSimReport.stale_hits` — the same staleness distribution
``figures.staleness_experiment`` measures from event traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.obs.clock import perf_counter
from repro.analysis.costs import c_search_index, c_search_unstructured
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import selection_outcome
from repro.analysis.threshold import solve_threshold
from repro.errors import ParameterError
from repro.fastsim.churn import BatchChurnProcess
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.metrics import FastSimReport, WindowRecorder
from repro.fastsim.precision import (
    INDEX_DTYPE,
    PROB_DTYPE,
    StatePrecision,
    check_slim_range,
    resolve_precision,
)
from repro.fastsim.state import FastSimState
from repro.fastsim.workload import BatchWorkload
from repro.analysis.zipf import ZipfDistribution
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import STRATEGY_NAMES as STRATEGIES
from repro.sim.metrics import MessageCategory
from repro.workloads.models import StationaryZipf

__all__ = [
    "PerOpCosts",
    "FastAdaptiveTtl",
    "FastSimKernel",
    "run_fastsim",
    "strategy_setup",
    "default_batch_workload",
]


#: Query-draw block cap for the batched round loop: rounds are drawn
#: ahead a block at a time, never more than this many queries at once
#: (unless one round alone exceeds it). Two int64 arrays of this size
#: are 2 MB: still cache-resident when ``_step_queries`` reads them back
#: round by round, and never re-faulted from one cell of a sweep to the
#: next. Chunking does not change the RNG stream: consecutive draws
#: concatenate bit-identically.
DRAW_BLOCK = 1 << 17

#: Round interval between flight-recorder progress heartbeats. Only paid
#: while an event sink is recording (``obs.heartbeat`` returns ``None``
#: otherwise, hoisting the check out of the loop); never touches RNG
#: state, so seeded results stay bit-identical with the recorder on.
HEARTBEAT_ROUNDS = 256


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Shared zero-length sentinels for the empty-batch early exits. The hot
#: paths only ever read the returned arrays (verified by every call
#: site), so one immutable instance per dtype replaces a fresh
#: allocation per round.
_EMPTY_F8 = _read_only(np.zeros(0))
_EMPTY_BOOL = _read_only(np.zeros(0, dtype=bool))
_EMPTY_I8 = _read_only(np.empty(0, dtype=INDEX_DTYPE))


class _RoundScratch:
    """Reusable per-round scratch buffers, keyed by role.

    The query hot paths need a handful of O(batch) temporaries every
    round (liveness masks, resolution probabilities, uniform draws).
    Allocating them afresh each round puts several transient blocks on
    top of state at 10^7 peers; instead each role owns one buffer that
    grows geometrically to the largest batch seen and is re-sliced per
    call, so steady-state peak memory is state + one draw block.

    A role is single-assignment within a round: callers must finish
    consuming a view before requesting the same role again.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, role: str, count: int, dtype: object = PROB_DTYPE) -> np.ndarray:
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < count or buffer.dtype != dtype:
            size = max(count, 2 * buffer.size) if buffer is not None else count
            buffer = np.empty(size, dtype=dtype)
            self._buffers[role] = buffer
        return buffer[:count]


def default_batch_workload(
    params: ScenarioParameters,
    seed: int,
    zipf: Optional[ZipfDistribution] = None,
) -> BatchWorkload:
    """The workload :class:`FastSimKernel` builds when given none.

    Materialised from the kernel's own seed derivation (the workload
    stream is child 1 of the master :class:`~numpy.random.SeedSequence`),
    so a workload built here and handed to the kernel draws the exact
    query stream the kernel would have drawn internally. The parallel
    runner uses this to construct default workloads in the parent process
    and ship their large arrays to workers by shared-memory handle.
    """
    seeds = np.random.SeedSequence(seed).spawn(5)
    return StationaryZipf().build(
        zipf or ZipfDistribution(params.n_keys, params.alpha),
        np.random.default_rng(seeds[1]),
    )


def strategy_setup(
    params: ScenarioParameters,
    config: PdhtConfig,
    strategy: str,
) -> tuple[float, int, int]:
    """Per-strategy ``(key_ttl, max_rank, num_members)`` derivation.

    Mirrors the event-engine strategies' ``_adjust_config`` /
    ``_active_peers`` hooks. Shared between :class:`FastSimKernel` and
    the parallel job runner (:mod:`repro.fastsim.parallel`), which must
    resolve per-op costs in the parent process — at the same DHT size
    the kernel would derive — before shipping jobs to workers.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    max_rank = 0
    if strategy == "noIndex":
        key_ttl = 0.0
        num_members = 2
    elif strategy == "indexAll":
        key_ttl = float("inf")
        num_members = params.active_peers_for(params.n_keys)
    elif strategy == "partialIdeal":
        key_ttl = float("inf")
        max_rank = solve_threshold(params).max_rank
        num_members = max(2, params.active_peers_for(max_rank))
    else:
        key_ttl = config.key_ttl
        expected = selection_outcome(params, config.key_ttl).index_size
        num_members = params.active_peers_for(max(expected, 1.0))
    return key_ttl, max_rank, num_members


@dataclass(frozen=True)
class PerOpCosts:
    """Per-operation message costs the kernel charges.

    Attributes
    ----------
    lookup:
        Messages per DHT lookup (``cSIndx``).
    flood:
        Messages per replica-subnetwork flood (the ``repl * dup2`` part of
        ``cSIndx2``).
    walk:
        Messages per broadcast search (``cSUnstr``).
    gateway_discovery:
        Messages for one bootstrap probe pair (Section 3.2 discovery).
    maintenance_per_round:
        Routing-probe messages per round with all members online.
    num_active_peers:
        DHT size the costs were evaluated at.
    source:
        ``"analytical"`` (Eq. 6-8/16) or ``"calibrated"`` (measured off an
        event-engine substrate).
    """

    lookup: float
    flood: float
    walk: float
    gateway_discovery: float
    maintenance_per_round: float
    num_active_peers: int
    source: str = "analytical"

    def __post_init__(self) -> None:
        for name in ("lookup", "flood", "walk", "gateway_discovery",
                     "maintenance_per_round"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")

    @classmethod
    def analytical(
        cls,
        params: ScenarioParameters,
        config: Optional[PdhtConfig] = None,
        num_active_peers: Optional[int] = None,
        key_ttl: Optional[float] = None,
    ) -> "PerOpCosts":
        """Closed-form costs (Eq. 6-8/16) at a given or derived DHT size."""
        config = config or PdhtConfig.from_scenario(params)
        if num_active_peers is None:
            ttl = config.key_ttl if key_ttl is None else key_ttl
            expected = selection_outcome(params, ttl).index_size
            num_active_peers = params.active_peers_for(max(expected, 1.0))
        if num_active_peers > 1:
            maintenance = (
                params.env * math.log2(num_active_peers) * num_active_peers
            )
        else:
            maintenance = 0.0
        return cls(
            lookup=c_search_index(num_active_peers),
            flood=config.replication * params.dup2,
            walk=c_search_unstructured(
                params.num_peers, config.replication, params.dup
            ),
            gateway_discovery=2.0,
            maintenance_per_round=maintenance,
            num_active_peers=num_active_peers,
            source="analytical",
        )


class FastAdaptiveTtl:
    """Self-tuning ``keyTtl`` hook — the batch counterpart of
    :class:`~repro.pdht.adaptive_ttl.AdaptiveTtlController`.

    Register on a kernel via ``kernel.on_round.append(hook)``. Every
    ``retarget_interval`` rounds it recomputes
    ``keyTtl = (cSUnstr - cSIndx) / cIndKey`` from the kernel's per-op
    costs, the observed index size, and the observed hit/miss mix (a miss
    search pays the replica flood on top of the lookup, exactly what the
    event controller's EWMA measures), clamps it, and retargets the kernel.
    """

    def __init__(
        self,
        retarget_interval: float = 300.0,
        min_ttl: float = 30.0,
        max_ttl: float = 1_000_000.0,
    ) -> None:
        if retarget_interval <= 0:
            raise ParameterError(
                f"retarget_interval must be > 0, got {retarget_interval}"
            )
        if min_ttl < 0 or max_ttl < min_ttl:
            raise ParameterError(
                f"need 0 <= min_ttl <= max_ttl, got [{min_ttl}, {max_ttl}]"
            )
        self.retarget_interval = retarget_interval
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.retargets: list[tuple[float, float]] = []
        #: Anchored on first invocation: one interval after the clock at
        #: registration, matching simulation.every() in the event engine.
        self._next_at: float | None = None
        self._seen_hits = 0
        self._seen_misses = 0

    def __call__(self, kernel: "FastSimKernel", now: float) -> None:
        if self._next_at is None:
            # ``now`` is the end of the round that started at now - 1.
            self._next_at = now - 1.0 + self.retarget_interval
        if now < self._next_at:
            return
        self._next_at += self.retarget_interval
        costs = kernel.costs
        index_size = max(1, kernel.state.index_size(now))
        c_ind_key = costs.maintenance_per_round / index_size
        # The event controller's cSIndx estimate is a recency-weighted
        # average of *measured* index searches: hits cost one lookup,
        # misses add the replica flood. Weight the flood by the miss share
        # of the last retarget window — the windowed analogue of its EWMA,
        # so both controllers re-converge after a workload shift instead
        # of being anchored to run-long totals.
        hits_total = int(kernel.state.key_hits.sum())
        misses_total = int(kernel.state.key_misses.sum())
        window_hits = hits_total - self._seen_hits
        window_misses = misses_total - self._seen_misses
        self._seen_hits, self._seen_misses = hits_total, misses_total
        searches = window_hits + window_misses
        miss_share = window_misses / searches if searches else 0.0
        measured_search_cost = costs.lookup + miss_share * costs.flood
        advantage = costs.walk - measured_search_cost
        if advantage <= 0 or c_ind_key <= 0:
            return
        target = min(self.max_ttl, max(self.min_ttl, advantage / c_ind_key))
        kernel.set_key_ttl(target)
        self.retargets.append((now, target))


class FastSimKernel:
    """Vectorized simulator of one indexing strategy.

    Parameters
    ----------
    params:
        Scenario parameters (Table 1 or a scaled variant).
    config:
        PDHT tuning knobs; defaults to the paper's derivation.
    strategy:
        One of ``noIndex`` / ``indexAll`` / ``partialIdeal`` /
        ``partialSelection`` (the four systems of Fig. 1).
    seed:
        Master seed; independent child streams drive counts, workload,
        membership, churn, and resolution draws.
    workload:
        Optional :class:`~repro.fastsim.workload.BatchWorkload` (defaults
        to the stationary Zipf stream).
    churn:
        Optional :class:`~repro.net.churn.ChurnConfig` for vectorized
        on/offline transitions.
    costs:
        Optional :class:`PerOpCosts`; the default policy
        (:func:`repro.fastsim.compare.costs_for`) calibrates against a
        real event-engine substrate up to
        :data:`~repro.fastsim.compare.CALIBRATION_LIMIT` peers and uses
        the analytical Eq. 6-8/16 costs beyond.
    churn_costs:
        Optional :class:`~repro.fastsim.churncosts.ChurnOpCosts`; only
        meaningful with churn. The default policy
        (:func:`repro.fastsim.compare.churn_costs_for`) measures the
        availability-dependent costs off a churned event-engine
        substrate below the calibration limit and falls back to the
        structural Monte-Carlo estimators beyond.
    content_refresh_period:
        Refresh all content every this many rounds (bumps every key's
        payload version, like the Section 4 scenario's daily article
        replacement), driving the staleness measurement.
    precision:
        Dtype policy for the state arrays — a
        :class:`~repro.fastsim.precision.StatePrecision`, its name
        (``"wide"``/``"slim"``), or ``None`` for the default ``wide``
        (bit-identical to the historical float64/int64 layout).
    """

    def __init__(
        self,
        params: ScenarioParameters,
        config: Optional[PdhtConfig] = None,
        strategy: str = "partialSelection",
        seed: int = 0,
        workload: Optional[BatchWorkload] = None,
        churn: Optional[ChurnConfig] = None,
        costs: Optional[PerOpCosts] = None,
        churn_costs: Optional[ChurnOpCosts] = None,
        content_refresh_period: Optional[float] = None,
        precision: str | StatePrecision | None = None,
    ) -> None:
        self.params = params
        self.config = config or PdhtConfig.from_scenario(params)
        self.strategy = strategy
        self.precision = resolve_precision(precision)

        # Child 1 is the default workload's stream (default_batch_workload).
        seeds = np.random.SeedSequence(seed).spawn(5)
        self._rng_counts = np.random.default_rng(seeds[0])
        self._rng_members = np.random.default_rng(seeds[2])
        self._rng_churn = np.random.default_rng(seeds[3])
        self._rng_resolve = np.random.default_rng(seeds[4])

        # Strategy-specific TTL and DHT size (mirrors the event-engine
        # strategies' _adjust_config / _active_peers hooks); rejects an
        # unknown strategy name.
        self.key_ttl, self._max_rank, num_members = strategy_setup(
            params, self.config, strategy
        )

        self.state = FastSimState(
            params, num_members, self._rng_members, precision=self.precision
        )
        self.workload = workload or default_batch_workload(params, seed)
        if self.workload.n_keys != params.n_keys:
            raise ParameterError(
                f"workload covers {self.workload.n_keys} keys, "
                f"scenario has {params.n_keys}"
            )
        # Imported lazily: compare.py imports this module at load time.
        from repro.fastsim.compare import resolve_costs

        self.costs, churn_costs = resolve_costs(
            params, self.config, num_members, seed, churn, self.workload,
            costs, churn_costs,
        )
        # A disabled config freezes liveness — a no-op in the event engine
        # (ChurnProcess.start returns immediately), so treat it as absent
        # and charge no churn surcharges.
        self.churn: Optional[BatchChurnProcess] = None
        self.churn_costs: Optional[ChurnOpCosts] = None
        if churn is not None and churn.enabled:
            self.churn = BatchChurnProcess(churn, self._rng_churn)
            self.churn.initialise(self.state.online)
            self.churn_costs = churn_costs

        if content_refresh_period is not None and content_refresh_period <= 0:
            raise ParameterError(
                f"content_refresh_period must be > 0, "
                f"got {content_refresh_period}"
            )
        self.content_refresh_period = content_refresh_period
        self._next_refresh = (
            content_refresh_period if content_refresh_period else None
        )

        #: End-of-round hooks ``hook(kernel, now)`` (adaptive TTL, probes).
        self.on_round: list[Callable[["FastSimKernel", float], None]] = []
        self.now = 0.0
        self._update_debt = 0.0
        self._queries = 0  # over every run: per-key tallies persist

        # Streamed-loop buffers: per-role scratch for the round hot paths,
        # draw buffers reused across blocks, and read-only all-ones
        # sentinels for the no-churn resolution fast path. All grow to the
        # largest batch seen and are then stable for the run.
        self._scratch = _RoundScratch()
        self._draw_ranks: Optional[np.ndarray] = None
        self._draw_keys: Optional[np.ndarray] = None
        self._ones_bool = _EMPTY_BOOL
        self._ones_f8 = _EMPTY_F8

    def _ones(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only all-ones ``(bool, float64)`` views of length ``count``."""
        if self._ones_bool.size < count:
            self._ones_bool = _read_only(np.ones(count, dtype=bool))
            self._ones_f8 = _read_only(np.ones(count))
        return self._ones_bool[:count], self._ones_f8[:count]

    # ------------------------------------------------------------------
    def set_key_ttl(self, key_ttl: float) -> None:
        """Retarget the TTL; existing entries keep their current expiry and
        adopt the new TTL on their next hit (same as the event engine)."""
        if key_ttl < 0:
            raise ParameterError(f"key_ttl must be >= 0, got {key_ttl}")
        self.key_ttl = float(key_ttl)

    # ------------------------------------------------------------------
    def run(self, duration: float, window: float = 0.0) -> FastSimReport:
        """Simulate ``duration`` rounds; returns the aggregate report.

        ``window > 0`` records hit-rate and index-size samples every
        ``window`` rounds, like the event engine's strategy driver.

        With telemetry on, the run reports a ``kernel.run`` duration with
        its phases nested under it: ``round.maintain`` / ``round.queries``
        / ``round.post`` count rounds, while ``draw`` counts draw blocks
        (one ``draw_rounds`` call per :data:`DRAW_BLOCK` queries) — a
        busy cell contributes several, an idle one exactly one. A ``slim``
        run past its exact range raises before its first round.
        """
        if duration <= 0:
            raise ParameterError(f"duration must be > 0, got {duration}")
        if duration != round(duration):
            # The kernel is round-stepped; accepting a fractional duration
            # would report rates over time it never simulated.
            raise ParameterError(
                f"duration must be a whole number of rounds, got {duration}"
            )
        started = perf_counter()
        # Telemetry is sampled into local floats and reported once after
        # the loop: one boolean check per phase per round when disabled,
        # no RNG interaction ever (seeded results stay bit-identical with
        # telemetry on or off).
        telemetry = obs.enabled()
        perf = perf_counter
        t_draw = t_maintain = t_queries = t_post = 0.0
        draw_blocks = 0
        report = FastSimReport(
            strategy=self.strategy, params=self.params, duration=duration
        )
        totals = {category: 0.0 for category in MessageCategory}
        recorder = WindowRecorder(window)
        rounds = int(round(duration))
        beat = obs.heartbeat("kernel.rounds", total=rounds)
        rate = self.params.network_query_rate
        # The workload may pin the counts (trace replay) or modulate the
        # rate (diurnal cycles); the stationary default keeps the exact
        # historical poisson(rate, size=rounds) draw.
        counts = self.workload.fixed_counts(self.now, rounds)
        if counts is None:
            multipliers = self.workload.rate_multipliers(self.now, rounds)
            if multipliers is None:
                counts = self._rng_counts.poisson(rate, size=rounds)
            else:
                counts = self._rng_counts.poisson(rate * multipliers)
        cumulative = np.cumsum(counts)
        queries = self._queries + int(cumulative[-1])
        check_slim_range(self.precision, self.now + rounds, self.key_ttl, queries)
        self._queries = queries
        start = self.now
        # Hoisted per-round temporaries: the window-close thunk and the
        # churn maintenance scale are loop invariants.
        size_thunk = lambda: self._reported_index_size(self.now)  # noqa: E731
        maintenance_scale = (
            self.churn_costs.maintenance_per_round
            / self.churn_costs.availability
            if self.churn_costs is not None
            else 0.0
        )

        # The workload stream is independent of every other child stream
        # (churn, membership, resolution), so whole blocks of rounds are
        # drawn up front in one draw_into call per shift-free segment
        # — identical RNG stream order, a fraction of the call overhead.
        # Blocks are bounded so a 10^7-peer run never materialises the
        # entire query stream at once.
        block_lo = 0
        while block_lo < rounds:
            drawn = cumulative[block_lo - 1] if block_lo else 0
            block_hi = int(
                np.searchsorted(cumulative, drawn + DRAW_BLOCK, side="right")
            )
            block_hi = min(max(block_hi, block_lo + 1), rounds)
            if telemetry:
                t0 = perf()
            total = int(cumulative[block_hi - 1] - drawn)
            if self._draw_ranks is None or self._draw_ranks.size < total:
                # One pair of draw buffers for the whole run, sized to the
                # largest block (~DRAW_BLOCK unless a single round
                # exceeds it): the streamed loop never re-materialises
                # the query stream.
                self._draw_ranks = np.empty(total, dtype=INDEX_DTYPE)
                self._draw_keys = np.empty(total, dtype=INDEX_DTYPE)
            block_ranks, block_keys, offsets = self.workload.draw_rounds(
                start + block_lo,
                counts[block_lo:block_hi],
                out=(self._draw_ranks, self._draw_keys),
            )
            if telemetry:
                t_draw += perf() - t0
                draw_blocks += 1
            for i in range(block_lo, block_hi):
                self.now += 1.0
                now = self.now
                if telemetry:
                    t0 = perf()
                if self.churn is not None:
                    report.churn_transitions += self.churn.step(
                        self.state.online
                    )
                if self._next_refresh is not None and now >= self._next_refresh:
                    # Content refresh before the round's queries, matching
                    # the event-engine staleness loop
                    # (advance -> refresh -> query).
                    self.state.bump_versions()
                    report.content_refreshes += 1
                    self._next_refresh += self.content_refresh_period
                if self.strategy != "noIndex":
                    if self.churn_costs is not None:
                        # The calibrated rate holds at the stationary
                        # availability; scale it to the instantaneous
                        # online member fraction so transients show up
                        # immediately.
                        totals[MessageCategory.MAINTENANCE] += (
                            maintenance_scale
                            * self.state.online_member_fraction()
                        )
                    else:
                        totals[MessageCategory.MAINTENANCE] += (
                            self.costs.maintenance_per_round
                        )

                if telemetry:
                    t1 = perf()
                    t_maintain += t1 - t0
                lo, hi = offsets[i - block_lo], offsets[i - block_lo + 1]
                accepted, round_hits = self._step_queries(
                    now, block_ranks[lo:hi], block_keys[lo:hi], totals, report
                )
                if telemetry:
                    t2 = perf()
                    t_queries += t2 - t1
                self._step_updates(totals)

                recorder.record(accepted, round_hits)
                recorder.maybe_close(now - start, size_thunk)
                for hook in self.on_round:
                    hook(self, now)
                if telemetry:
                    t_post += perf() - t2
                if beat is not None and (i + 1) % HEARTBEAT_ROUNDS == 0:
                    beat(i + 1)
            block_lo = block_hi

        if beat is not None:
            beat(rounds)

        # Close the trailing partial window (duration % window != 0) so
        # the tail queries reach hit_rate_series — the event driver
        # flushes identically.
        recorder.flush(self.now - start, size_thunk)

        report.messages_by_category = {
            category: total for category, total in totals.items() if total
        }
        report.hit_rate_series = recorder.hit_rate_series
        report.index_size_series = recorder.index_size_series
        report.final_index_size = self._reported_index_size(self.now)
        if recorder.index_size_series:
            report.mean_index_size = sum(
                size for _, size in recorder.index_size_series
            ) / len(recorder.index_size_series)
        else:
            report.mean_index_size = float(report.final_index_size)
        report.key_ttl = self.key_ttl
        report.elapsed_seconds = perf_counter() - started
        if telemetry:
            # Phases carry slash-joined names so they nest under
            # kernel.run in the profile tree (and under any enclosing
            # span, e.g. sweep.grid, via the thread's span stack).
            obs.add_duration("kernel.run", report.elapsed_seconds)
            obs.add_duration("kernel.run/draw", t_draw, n=draw_blocks)
            obs.add_duration("kernel.run/round.maintain", t_maintain, n=rounds)
            obs.add_duration("kernel.run/round.queries", t_queries, n=rounds)
            obs.add_duration("kernel.run/round.post", t_post, n=rounds)
            obs.count("kernel.runs")
            obs.count("kernel.rounds", rounds)
            obs.count("kernel.queries", report.queries)
            obs.sample_peak_rss("kernel")
        return report

    # ------------------------------------------------------------------
    # Per-round steps
    # ------------------------------------------------------------------
    def _step_queries(
        self,
        now: float,
        ranks: np.ndarray,
        keys: np.ndarray,
        totals: dict[MessageCategory, float],
        report: FastSimReport,
    ) -> tuple[int, int]:
        """Process one round's query batch.

        Returns ``(accepted, hits)`` — ``accepted`` is how many of the
        batch's queries actually ran (0 when nobody is online to
        originate one), so the window recorder and the report always
        describe the same query population.
        """
        count = keys.size
        if count == 0:
            return 0, 0
        if self.churn is not None and not self.state.online.any():
            # Nobody online to originate a query this round — the event
            # engine cannot draw an origin either. Drop the batch.
            return 0, 0
        report.queries += count
        if self.strategy == "noIndex":
            # Every query broadcast; no DHT, no gateway traffic.
            resolved_mask, p_resolve = self._resolve_draws(count)
            resolved = int(resolved_mask.sum())
            report.answered += resolved
            self._charge_walks(count, p_resolve, totals)
            report.unresolved += count - resolved
            return count, 0
        if self.strategy == "indexAll":
            # Every key pre-indexed with infinite TTL at *every* replica
            # group member (preloading), so even under churn the rerouted
            # responsible answers directly: all hits, no flood traffic.
            self._charge_gateways(self._draw_origins(count), totals, report)
            totals[MessageCategory.INDEX_SEARCH] += self._lookup_cost * count
            report.index_hits += count
            report.answered += count
            return count, count
        if self.strategy == "partialIdeal":
            indexed = ranks <= self._max_rank
            hits = int(indexed.sum())
            misses = count - hits
            self._charge_gateways(
                self._draw_origins(count)[indexed], totals, report
            )
            totals[MessageCategory.INDEX_SEARCH] += self._lookup_cost * hits
            resolved_mask, p_resolve = self._resolve_draws(misses)
            resolved = int(resolved_mask.sum())
            self._charge_walks(misses, p_resolve, totals)
            report.index_hits += hits
            report.answered += hits + resolved
            report.unresolved += misses - resolved
            return count, hits
        return count, self._step_selection(now, keys, totals, report)

    def _step_selection(
        self,
        now: float,
        keys: np.ndarray,
        totals: dict[MessageCategory, float],
        report: FastSimReport,
    ) -> int:
        """The Section 5.1 query path on one round's batch."""
        state = self.state
        scratch = self._scratch
        count = keys.size
        self._charge_gateways(self._draw_origins(count), totals, report)

        # Liveness test in preallocated scratch (same strict > as
        # state.live_mask, without the per-round temporaries).
        expiries = np.take(
            state.expires_at,
            keys,
            out=scratch.get("select.expiry", count, state.expires_at.dtype),
        )
        live = np.greater(expiries, now, out=scratch.get("select.live", count, bool))
        cc = self.churn_costs
        if cc is not None and cc.turnover_miss > 0.0:
            # Responsible-peer turnover: a query for a live key can still
            # miss when the entry sits behind offline members; the event
            # engine then walks and re-inserts it like any other miss.
            # (live &= ~(live & (draw < t)) reduces to live &= draw >= t;
            # the uniform draw itself is unchanged.)
            draws = self._rng_resolve.random(
                out=scratch.get("select.turnover", count, PROB_DTYPE)
            )
            kept = np.greater_equal(
                draws, cc.turnover_miss, out=scratch.get("select.kept", count, bool)
            )
            np.logical_and(live, kept, out=live)
        not_live = np.logical_not(
            live, out=scratch.get("select.notlive", count, bool)
        )
        hit_keys = keys[live]
        miss_keys = keys[not_live]
        unique_miss, multiplicity = np.unique(miss_keys, return_counts=True)

        if self.key_ttl > 0:
            # First occurrence of a missing key misses; once its broadcast
            # resolves and re-inserts it, the round's later duplicates hit.
            resolved_mask, p_resolve = self._resolve_draws(unique_miss.size)
            duplicate_hits = int((multiplicity[resolved_mask] - 1).sum())
            miss_events = int(resolved_mask.sum()) + int(
                multiplicity[~resolved_mask].sum()
            )
            inserts = unique_miss[resolved_mask]
            hits = int(live.sum()) + duplicate_hits
            report.stale_hits += state.stale_count(hit_keys)
            # Per-occurrence miss attribution: a resolved key misses only
            # on its first occurrence (later duplicates hit), an
            # unresolved key misses on every occurrence.
            miss_weights = np.where(resolved_mask, 1, multiplicity)
            # Expected walk messages per unique missing key over the
            # resolution draw (Rao-Blackwellised; see _charge_walks):
            # resolve -> one resolved walk, fail -> every occurrence
            # re-walks and exhausts.
            walk_events = multiplicity
            walk_p = p_resolve
        else:
            # Degenerate keyTtl = 0: TtlKeyStore resets a hit entry's
            # expiry to ``now``, so an entry still live from an earlier
            # positive-TTL era serves exactly one hit and then dies, its
            # same-round duplicates miss, and fresh inserts expire on
            # arrival.
            unique_live, live_counts = np.unique(hit_keys, return_counts=True)
            state.expires_at[unique_live] = now  # killed by their own hit
            np.add.at(state.key_misses, unique_live, live_counts - 1)
            report.reinsertions += int(hit_keys.size - unique_live.size)
            miss_events = miss_keys.size + int(hit_keys.size - unique_live.size)
            hit_keys = unique_live
            resolved_mask, p_resolve = self._resolve_draws(miss_events)
            occurrences = np.concatenate(
                [miss_keys, np.repeat(unique_live, live_counts - 1)]
            )
            inserts = occurrences[resolved_mask]
            hits = unique_live.size
            report.stale_hits += state.stale_count(unique_live)
            miss_weights = multiplicity  # every occurrence misses
            walk_events = 1  # every miss-event walks exactly once
            walk_p = p_resolve

        # In both TTL regimes insertions == number of resolved broadcasts.
        insertions = inserts.size
        unresolved = miss_events - insertions

        # Reinsertion / cold-miss attribution (selection stats, source
        # I/IV), weighted per occurrence like the event engine's
        # record_miss.
        if unique_miss.size:
            ever = state.ever_indexed[unique_miss]
            report.reinsertions += int(miss_weights[ever].sum())
            report.cold_misses += int(miss_weights[~ever].sum())

        # State transitions: hits rearm, resolved misses (re)insert — and
        # a re-insert always fetches the *current* content version.
        if self.key_ttl > 0:
            state.refresh(hit_keys, now, self.key_ttl)
            state.refresh(inserts, now, self.key_ttl)
        state.capture_versions(inserts)
        state.ever_indexed[inserts] = True
        np.add.at(state.key_hits, hit_keys, 1)
        if self.key_ttl > 0:
            np.add.at(
                state.key_hits, unique_miss[resolved_mask], multiplicity[resolved_mask] - 1
            )
        np.add.at(state.key_misses, unique_miss, miss_weights)
        np.add.at(state.key_insertions, inserts, 1)

        # Cost accounting (Section 5.1 / Eq. 17 event-for-event).
        if cc is None:
            totals[MessageCategory.INDEX_SEARCH] += self.costs.lookup * (
                count + insertions
            )
            totals[MessageCategory.REPLICA_FLOOD] += self.costs.flood * (
                miss_events + insertions
            )
            totals[MessageCategory.UNSTRUCTURED_SEARCH] += (
                self.costs.walk * miss_events
            )
        else:
            totals[MessageCategory.INDEX_SEARCH] += (
                cc.lookup * count + cc.miss_lookup * insertions
            )
            totals[MessageCategory.REPLICA_FLOOD] += (
                cc.miss_flood * miss_events
                + cc.insert_flood * insertions
                + cc.hit_flood_fraction * cc.hit_flood * hits
            )
            # Expected walk messages over the resolution draw: a resolved
            # key pays one resolved walk, an unresolved one re-walks and
            # exhausts on every occurrence.
            totals[MessageCategory.UNSTRUCTURED_SEARCH] += float(
                (
                    walk_p * cc.resolved_walk
                    + (1.0 - walk_p) * walk_events * cc.failed_walk
                ).sum()
            )

        report.index_hits += hits
        report.insertions += insertions
        report.answered += hits + (miss_events - unresolved)
        report.unresolved += unresolved
        return hits

    def _step_updates(self, totals: dict[MessageCategory, float]) -> None:
        """Proactive index updates (indexAll / partialIdeal only, Eq. 9)."""
        if self.strategy == "indexAll":
            per_round = self.params.n_keys * self.params.update_freq
        elif self.strategy == "partialIdeal":
            per_round = self._max_rank * self.params.update_freq
        else:
            return
        self._update_debt += per_round
        whole = int(self._update_debt)
        if whole:
            self._update_debt -= whole
            # An update routes to the responsible peer and floods its
            # replica subnetwork, like the event engine's proactive_update
            # (= _insert_into_index: one lookup + one replica flood).
            cc = self.churn_costs
            if cc is None:
                totals[MessageCategory.INDEX_SEARCH] += (
                    self.costs.lookup * whole
                )
                totals[MessageCategory.REPLICA_FLOOD] += (
                    self.costs.flood * whole
                )
            else:
                # Under churn the update pays the availability-adjusted
                # lookup over the online membership and the measured
                # online-component insert flood, exactly like the event
                # engine's insert path does.
                totals[MessageCategory.INDEX_SEARCH] += cc.lookup * whole
                totals[MessageCategory.REPLICA_FLOOD] += (
                    cc.insert_flood * whole
                )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _draw_origins(self, count: int) -> np.ndarray:
        """Uniform origins among online peers (event engine parity)."""
        if self.churn is None:
            return self._rng_resolve.integers(
                0, self.params.num_peers, size=count
            )
        online = np.flatnonzero(self.state.online)
        if online.size == 0:
            return _EMPTY_I8
        return online[self._rng_resolve.integers(0, online.size, size=count)]

    def _charge_gateways(
        self,
        origins: np.ndarray,
        totals: dict[MessageCategory, float],
        report: FastSimReport,
    ) -> None:
        """First index-path query per non-member origin pays bootstrap."""
        discoveries = self.state.discover_gateways(origins)
        if discoveries:
            report.gateway_discoveries += discoveries
            per_discovery = self.costs.gateway_discovery
            if self.churn is not None:
                # Offline candidates force extra probe pairs (geometric).
                availability = max(self.churn.availability, 1e-6)
                per_discovery /= availability
            totals[MessageCategory.MEMBERSHIP] += per_discovery * discoveries

    @property
    def _lookup_cost(self) -> float:
        """Per-lookup messages, availability-adjusted under churn."""
        if self.churn_costs is not None:
            return self.churn_costs.lookup
        return self.costs.lookup

    def _resolve_draws(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample which broadcasts find the key; returns ``(mask, p)``.

        Without churn every search resolves (the paper's broadcast "finds
        any key if it exists"). Under churn each search first draws its
        replica-availability vector — how many of the key's ``repl``
        content replicas are online this round — and fails outright at
        zero; otherwise it fails with the calibrated walk-failure
        probability (walkers trapped in an online component without a
        holder). ``p`` is the per-event resolution probability, reused to
        charge walk costs in expectation.
        """
        if count == 0:
            return _EMPTY_BOOL, _EMPTY_F8
        if self.churn is None:
            # Every search resolves; serve read-only cached ones instead
            # of two fresh allocations per round.
            return self._ones(count)
        scratch = self._scratch
        online_replicas = self.churn.replica_online_counts(
            count, self.config.replication, self._rng_resolve
        )
        conditional = (
            1.0 - self.churn_costs.walk_failure
            if self.churn_costs is not None
            else 1.0
        )
        # where(online > 0, c, 0.0) == (online > 0) * c exactly (True*c
        # is c, False*c is +0.0), computed into per-role scratch.
        some_online = np.greater(
            online_replicas, 0, out=scratch.get("resolve.online", count, bool)
        )
        p = np.multiply(
            some_online,
            conditional,
            out=scratch.get("resolve.p", count, PROB_DTYPE),
        )
        draws = self._rng_resolve.random(
            out=scratch.get("resolve.draws", count, PROB_DTYPE)
        )
        mask = np.less(draws, p, out=scratch.get("resolve.mask", count, bool))
        return mask, p

    def _charge_walks(
        self,
        count: int,
        p_resolve: np.ndarray,
        totals: dict[MessageCategory, float],
    ) -> None:
        """Charge ``count`` broadcast searches, expectation over resolution."""
        if count == 0:
            return
        if self.churn_costs is None:
            totals[MessageCategory.UNSTRUCTURED_SEARCH] += (
                self.costs.walk * count
            )
            return
        cc = self.churn_costs
        expected_resolved = float(p_resolve.sum())
        totals[MessageCategory.UNSTRUCTURED_SEARCH] += (
            expected_resolved * cc.resolved_walk
            + (count - expected_resolved) * cc.failed_walk
        )

    def _reported_index_size(self, now: float) -> int:
        if self.strategy == "indexAll":
            return self.params.n_keys
        if self.strategy == "partialIdeal":
            return self._max_rank
        if self.strategy == "noIndex":
            return 0
        return self.state.index_size(now)


def run_fastsim(
    params: ScenarioParameters,
    config: Optional[PdhtConfig] = None,
    duration: float = 600.0,
    strategy: str = "partialSelection",
    seed: int = 0,
    workload: Optional[BatchWorkload] = None,
    churn: Optional[ChurnConfig] = None,
    costs: Optional[PerOpCosts] = None,
    churn_costs: Optional[ChurnOpCosts] = None,
    content_refresh_period: Optional[float] = None,
    window: float = 0.0,
    precision: str | StatePrecision | None = None,
) -> FastSimReport:
    """Build a :class:`FastSimKernel` and run it — the one-call fast path."""
    kernel = FastSimKernel(
        params,
        config=config,
        strategy=strategy,
        seed=seed,
        workload=workload,
        churn=churn,
        costs=costs,
        churn_costs=churn_costs,
        content_refresh_period=content_refresh_period,
        precision=precision,
    )
    return kernel.run(duration, window=window)
