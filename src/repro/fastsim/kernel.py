"""Round-stepped batch execution of the PDHT simulation semantics.

Where the event engine dispatches one Python callback per query, the
kernel processes a whole *span* of rounds in one numpy pass: liveness
test against the per-key write times, unique-key miss resolution, TTL
refresh, gateway discovery — a fixed handful of array ops per span,
regardless of how many million peers the scenario has or how many rounds
the span covers. A span is a run of consecutive rounds whose only state
changes are its own queries' writes, none of which can expire inside it
(no churn, a keyTtl longer than the span, no content refresh after its
first round; see :meth:`FastSimKernel._span_end`); a Python
loop then books each round's tallies and message charges in round order.
Anything else is a one-round span through the same code.

A kernel runs one or more *lanes*, one per job: the jobs of a sweep's
keyTtl column differ only in keyTtl, and without churn or content
refresh every query writes its key whatever the keyTtl, so one kernel
runs them all (:meth:`FastSimKernel.add_lane`;
:func:`repro.fastsim.parallel.units` decides which jobs). The query
counts, the workload draw, the origins, the per-key write times and the
mask of peers seen on the index path are made once for all lanes; each
lane keeps its own members, costs, report, message totals and window
recorder. A span's hits and misses are a *decision*, which a lane then
*prices* at its own costs, with its own members' gateway discoveries.
Spans are the shortest any lane allows.

A kernel runs once, and a lane's liveness has one rule
(:meth:`FastSimKernel._reads_plane`). Every write time of a run is a
round's, so at least 1.0: a lane whose ``1.0 + keyTtl`` is after a
span's last round sees exactly the keys ever written as live throughout
it, and Section 5.1 reduces to first occurrence (a query hits iff an
earlier query inserted its key). A run of adaptive lanes with no churn,
no content refresh and a fresh state keeps a byte plane of the keys ever
written, and in each span all such lanes share one decision from it
(:meth:`FastSimKernel._first_occurrence`: one byte gathered per query,
only the misses sorted; ``kernel.lanes.shared`` counts the lane-spans
that took another lane's). Every other lane tests liveness at its own
keyTtl against the write times the span opens with; where any lane of
the run reads them, every span writes its times after every lane has
read them. A run in which none does (every lane's ``1.0 + keyTtl`` after
its last round, as in every cell of a sweep, whose keyTtl is thousands
of rounds against its 240) allocates and writes none:
``kernel.runs.unexpiring`` counts it. A span stepped outside
:meth:`~FastSimKernel.run` takes the general liveness test.

Every random input of a run — query counts, the default workload stream,
DHT members, churn flips, origins, turnover and resolution draws — comes
from its :class:`~repro.fastsim.inputs.RoundInputs`, which owns which
stream of the seed feeds which input.

Faithfulness to :class:`~repro.pdht.network.PdhtNetwork` (Section 5.1):

* hit iff the key's latest replica expiry, its last write time plus
  keyTtl, is strictly after ``now`` — an entry reaching its expiry
  instant is already dead, exactly like the ``expires_at <= now`` miss
  of :class:`~repro.pdht.ttl_cache.ReplicaGroupIndex`;
* a hit rearms the expiration clock to ``now + keyTtl``;
* a miss floods the replica subnetwork, broadcasts, and (when resolved)
  re-inserts the key, so later queries for it *in the same round* hit —
  reproduced exactly via unique-key decomposition of each round's batch
  (and, across the rounds of a span, by a key's first round in it);
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

Staleness is first-class batch state: a content refresh
(``content_refresh_period`` or :meth:`FastSimState.bump_versions`) bumps
the content version of every key, and each index entry keeps the version
captured on its (re-)insert; hits served from an entry whose version
lags count into :attr:`FastSimReport.stale_hits` — the same staleness
distribution ``figures.staleness_experiment`` measures from event traces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.obs.clock import perf_counter
from repro.analysis.costs import c_search_index, c_search_unstructured
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import (
    StrategyPolicy,
    selection_members,
    strategy_setup,
)
from repro.errors import ParameterError, require_period
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.metrics import FastSimReport, WindowRecorder
from repro.fastsim.precision import INDEX_DTYPE, PROB_DTYPE, TIME_DTYPE
from repro.fastsim.state import FastSimState, Membership, _distinct
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.sim.engine import whole_rounds
from repro.sim.metrics import MessageCategory

__all__ = [
    "PerOpCosts",
    "FastSimKernel",
    "run_fastsim",
    "strategy_setup",
]


#: Query-draw block cap for the batched round loop: rounds are drawn
#: ahead a block at a time, never more than this many queries at once
#: (unless one round alone exceeds it). Two int64 arrays of this size
#: are 2 MB: still cache-resident when ``_step_span`` reads them back
#: span by span, and never re-faulted from one cell of a sweep to the
#: next. Chunking does not change the RNG stream: consecutive draws
#: concatenate bit-identically.
DRAW_BLOCK = 1 << 17

#: Query budget of a span (the rounds one ``_step_span`` pass covers): a
#: span takes no more rounds than fit this many queries. Each round a
#: span adds saves a fixed ~50 us of numpy calls and costs ~12 ns a query
#: of span bookkeeping, so a span of two rounds only pays below ~2k
#: queries a round; this budget keeps every multi-round span there. A
#: round that alone exceeds it is a span of its own.
SPAN_QUERIES = 1 << 12

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
#: allocation per span.
_EMPTY_F8 = _read_only(np.zeros(0))
_EMPTY_BOOL = _read_only(np.zeros(0, dtype=bool))


def _rounds_before(start: float, limit: float) -> float:
    """How many of the rounds at ``start, start + 1, ...`` come strictly
    before ``limit`` (``inf`` if all do).

    Round times are whole numbers, so the round-by-round test
    ``start + j < limit`` holds exactly for ``j < ceil(limit - start)``;
    the rounded subtraction can only make the count smaller, never larger.
    """
    if limit == math.inf:
        return math.inf
    return max(0, math.ceil(limit - start))


class _Span:
    """Consecutive rounds of one draw block that one numpy pass handles.

    Round ``j`` of the span runs at ``now + j`` with ``counts[j]`` of the
    span's queries, which are stored in round order.
    """

    __slots__ = ("now", "counts", "size", "rounds")

    def __init__(self, now: float, counts: np.ndarray) -> None:
        self.now = now
        self.counts: list[int] = counts.tolist()
        self.size = len(self.counts)
        #: The span round of each query; ``None`` in a one-round span.
        self.rounds = (
            np.repeat(np.arange(self.size), counts) if self.size > 1 else None
        )

    def tally(self, selected: np.ndarray) -> list[int]:
        """Per-round number of the queries a boolean mask selects."""
        if self.rounds is None:
            return [int(np.count_nonzero(selected))]
        return np.bincount(self.rounds[selected], minlength=self.size).tolist()


#: A span's message charges: ``(category, per-round amounts)`` pairs.
_Charges = list[tuple[MessageCategory, list[float]]]


@dataclass(slots=True)
class _Decision:
    """What the Section 5.1 query path decides for one span's queries
    under one liveness test: each query's hit or miss, and what follows
    from it. Every lane with that liveness reaches the same decision; a
    lane prices it with its own costs (:meth:`FastSimKernel._price`).

    ``hits``, ``misses`` and ``inserted`` are per round of the span;
    ``walks`` is the expected walk charge under churn (``None`` without).
    """

    hits: list[int]
    misses: list[int]
    inserted: list[int]
    count: int
    miss_events: int
    insertions: int
    unresolved: int
    cold: int
    stale: int
    walks: Optional[float]

    def tally(self, report: FastSimReport) -> None:
        """Count the decision into a lane's ``report``."""
        hits = self.count - self.miss_events
        report.stale_hits += self.stale
        report.cold_misses += self.cold
        # StrategyReport's overhead sources I/IV: a miss event that is
        # not cold is a reinsertion.
        report.reinsertions += self.miss_events - self.cold
        report.index_hits += hits
        report.insertions += self.insertions
        report.answered += hits + (self.miss_events - self.unresolved)
        report.unresolved += self.unresolved


class _SpanScratch:
    """Reusable per-span scratch buffers, keyed by role.

    The query hot paths need a handful of O(span) temporaries every
    span (liveness masks, resolution probabilities, uniform draws).
    Allocating them afresh each span puts several transient blocks on
    top of state at 10^7 peers; instead each role owns one buffer that
    grows geometrically to the largest span seen and is re-sliced per
    call, so steady-state peak memory is state + one draw block.

    A role is single-assignment within a span: callers must finish
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
            num_active_peers = selection_members(
                params, config.key_ttl if key_ttl is None else key_ttl
            )
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


class _Lane:
    """One job of a kernel: what its keyTtl decides.

    The lanes of a kernel run one scenario, strategy and seed on one
    query stream; each has its own strategy policy (keyTtl and DHT size),
    costs, members and gateways, and proactive-update debt.
    """

    __slots__ = ("policy", "costs", "membership", "update_debt")

    def __init__(
        self, policy: StrategyPolicy, costs: PerOpCosts, membership: Membership
    ) -> None:
        self.policy = policy
        self.costs = costs
        self.membership = membership
        self.update_debt = 0.0

    @property
    def key_ttl(self) -> float:
        return self.policy.key_ttl


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
        Master seed of the run's :class:`~repro.fastsim.inputs.RoundInputs`,
        through which every random draw of the run is made.
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
        content version, like the Section 4 scenario's daily article
        replacement), driving the staleness measurement; ``inf`` never
        refreshes.

    The kernel runs ``config`` as its first lane; :meth:`add_lane` adds
    more (see the module docstring).
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
    ) -> None:
        if content_refresh_period is not None:
            require_period("content_refresh_period", content_refresh_period)
        self.params = params
        self.config = config or PdhtConfig.from_scenario(params)
        self.strategy = strategy
        self.inputs = RoundInputs(seed)

        # What the strategy indexes, its TTL and DHT size: the policy the
        # event engine reads too. Rejects an unknown strategy name.
        policy = strategy_setup(params, self.config, strategy)

        self.state = FastSimState(params)
        # Drawn once the state's arrays exist: drawn before them, the
        # draw's transient (an arange over every peer at large member
        # counts) sits under them in the heap, and a pooled sweep's peak
        # RSS rises by ~1 MiB.
        membership = self._membership(policy)
        self.workload = workload or self.inputs.workload(params)
        if self.workload.n_keys != params.n_keys:
            raise ParameterError(
                f"workload covers {self.workload.n_keys} keys, "
                f"scenario has {params.n_keys}"
            )
        # Imported lazily: compare.py imports this module at load time.
        from repro.fastsim.compare import resolve_costs

        costs, churn_costs = resolve_costs(
            params, self.config, policy.num_members, seed, churn,
            self.workload, costs, churn_costs,
        )
        self.lanes = [_Lane(policy, costs, membership)]
        #: Every lane's report of the last :meth:`run`, in lane order.
        self.reports: list[FastSimReport] = []
        self.churn: Optional[ChurnConfig] = churn
        self.churn_costs: Optional[ChurnOpCosts] = None
        if churn is not None:
            self.state.set_online(
                self.inputs.churn_start(params.num_peers, churn)
            )
            self.churn_costs = churn_costs

        self.content_refresh_period = content_refresh_period
        self._next_refresh = (
            content_refresh_period if content_refresh_period else None
        )

        self.now = 0.0
        #: Whether :meth:`run` was called: a kernel runs once.
        self._ran = False
        #: Each key's "ever written", in a run whose lanes can read it
        #: (:meth:`_unexpiring`); ``None`` in any other.
        self._plane: Optional[np.ndarray] = None
        #: Whether some lane reads write times, so every span writes them.
        self._reads_times = True

        # Streamed-loop buffers: per-role scratch for the span hot paths
        # and read-only all-ones sentinels for the no-churn resolution
        # fast path. All grow to the largest batch seen and are then
        # stable for the run.
        self._scratch = _SpanScratch()
        self._ones_bool = _EMPTY_BOOL
        self._ones_f8 = _EMPTY_F8
        #: Lane-spans answered from another lane's decision (:meth:`_decide`).
        self._shared_lanes = 0

    def _membership(self, policy: StrategyPolicy) -> Membership:
        """The masks of a lane running ``policy``, with its members.

        A lane whose members are every peer gets an all-True mask
        without a draw: the draw could only shuffle every peer, and each
        :meth:`RoundInputs.members` call restarts child 2, so skipping
        one moves no other input. Drawn memberships count as
        ``kernel.members.drawn``.
        """
        num_peers = self.params.num_peers
        membership = Membership(num_peers)
        if policy.num_members == num_peers:
            membership.set_everyone()
        else:
            membership.set_members(
                self.inputs.members(num_peers, policy.num_members)
            )
            obs.count("kernel.members.drawn")
        return membership

    def add_lane(
        self, config: PdhtConfig, costs: Optional[PerOpCosts] = None
    ) -> None:
        """Run ``config`` too, as one more lane of this kernel.

        ``config`` may differ from the kernel's only in ``key_ttl``, and
        only a kernel without churn or content refresh takes lanes, before
        its run. ``costs`` default as the constructor's do. The
        lane's report (:attr:`reports`) equals that of a kernel built with
        ``config`` and run alone. It adds one mask over the peers (its
        members) and no per-key state; in a span before its
        ``1.0 + keyTtl`` it takes the first-occurrence decision the
        other such lanes take (see the module docstring).
        """
        if self.churn is not None or self._next_refresh is not None:
            raise ParameterError(
                "only a run without churn or content refresh takes lanes"
            )
        if self._ran:
            raise ParameterError("lanes are added before the first run")
        if config.with_ttl(self.config.key_ttl) != self.config:
            raise ParameterError(
                "a lane's config may differ from the kernel's only in key_ttl"
            )
        from repro.fastsim.compare import resolve_costs

        policy = strategy_setup(self.params, config, self.strategy)
        membership = self._membership(policy)
        costs, _ = resolve_costs(
            self.params, config, policy.num_members, costs=costs
        )
        self.lanes.append(_Lane(policy, costs, membership))

    def _ones(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only all-ones ``(bool, float64)`` views of length ``count``."""
        if self._ones_bool.size < count:
            self._ones_bool = _read_only(np.ones(count, dtype=bool))
            self._ones_f8 = _read_only(np.ones(count))
        return self._ones_bool[:count], self._ones_f8[:count]

    # ------------------------------------------------------------------
    def run(self, duration: float, window: float = 0.0) -> FastSimReport:
        """Simulate ``duration`` rounds; returns the first lane's report
        (every lane's is in :attr:`reports`). A kernel runs once: a
        second call raises :class:`~repro.errors.ParameterError`.

        ``window > 0`` records hit-rate and index-size samples every
        ``window`` rounds, like the event engine's strategy driver.

        Each lane's ``elapsed_seconds`` is its share of the run's wall
        clock, so the lanes' times sum to it. With telemetry on, the run
        reports a ``kernel.run`` duration with its phases nested under
        it: ``round.maintain`` / ``round.queries`` / ``round.post`` count
        the loop's rounds, while ``draw`` counts draw blocks (one
        ``draw_rounds`` call per :data:`DRAW_BLOCK` queries) — a busy run
        contributes several, an idle one exactly one — and the
        ``kernel.spans`` counter counts numpy passes (:meth:`_step_span`).
        ``kernel.runs``, ``kernel.rounds`` and ``kernel.queries`` count
        every lane's, ``kernel.lanes.shared`` the lane-spans answered
        from another lane's decision (:meth:`_decide`; absent when none)
        and ``kernel.runs.unexpiring`` the runs in which no entry can
        expire (:meth:`_unexpiring`; one per run, not per lane).
        ``rusage.kernel.cpu_s``, ``rusage.kernel.minflt`` and
        ``rusage.kernel.nivcsw`` are the process's CPU seconds, minor page
        faults and involuntary context switches during the run.
        """
        if self._ran:
            raise ParameterError("a kernel runs once; build one per run")
        rounds = whole_rounds(duration)
        self._ran = True
        # Decided for the whole run, never per span: see _unexpiring.
        self._plane, self._reads_times = self._unexpiring(rounds)
        # Telemetry is sampled into local floats and reported once after
        # the loop: one boolean check per phase per round when disabled,
        # no RNG interaction ever (seeded results stay bit-identical with
        # telemetry on or off).
        telemetry = obs.enabled()
        usage = obs.cpu_and_faults() if telemetry else None
        started = perf_counter()
        perf = perf_counter
        t_draw = t_maintain = t_queries = t_post = 0.0
        draw_blocks = spans = transitions = refreshes = 0
        shared_before = self._shared_lanes
        lanes = self.lanes
        reports = [
            FastSimReport(
                strategy=self.strategy, params=self.params, duration=duration
            )
            for _ in lanes
        ]
        lane_totals = [
            {category: 0.0 for category in MessageCategory} for _ in lanes
        ]
        recorders = [WindowRecorder(window) for _ in lanes]
        # Hoisted window-close thunks: sizing an index is only paid when
        # a window closes.
        index_sizes = [
            lambda lane=lane: self._reported_index_size(lane, self.now)
            for lane in lanes
        ]
        beat = obs.heartbeat("kernel.rounds", total=rounds)
        counts = self.inputs.counts(
            self.workload, self.now, rounds, self.params.network_query_rate
        )
        cumulative = np.cumsum(counts)
        start = self.now
        # Routing maintenance per round. Under churn the calibrated rate
        # holds at the stationary availability; each span scales it to
        # the instantaneous online member fraction so transients show up
        # immediately.
        maintenance = [
            lane.costs.maintenance_per_round if lane.policy.runs_dht else 0.0
            for lane in lanes
        ]
        maintenance_scale = (
            self.churn_costs.maintenance_per_round
            / self.churn_costs.availability
            if self.churn_costs is not None and lanes[0].policy.runs_dht
            else None
        )

        # The workload stream is independent of every other child stream
        # (churn, membership, resolution), so whole blocks of rounds are
        # drawn up front in one draw_into call per shift-free segment
        # — identical RNG stream order, a fraction of the call overhead.
        # Blocks are bounded so a 10^7-peer run never materialises the
        # entire query stream at once: a block takes the rounds that fit
        # DRAW_BLOCK queries, at least one; edges[b] is block b's first
        # round.
        drawn = np.concatenate(([0], cumulative))
        edges = [0]
        while edges[-1] < rounds:
            block_lo = edges[-1]
            block_hi = int(np.searchsorted(
                cumulative, drawn[block_lo] + DRAW_BLOCK, side="right"
            ))
            edges.append(min(max(block_hi, block_lo + 1), rounds))
        # One draw buffer for the whole run, sized to its largest block
        # (~DRAW_BLOCK unless a single round exceeds it): the streamed
        # loop never re-materialises the query stream. Only a static
        # index reads ranks; every other policy draws keys alone.
        largest = int(np.diff(drawn[edges]).max())
        policy = lanes[0].policy
        static = policy.runs_dht and not policy.adaptive
        buffers = (
            np.empty(largest, dtype=INDEX_DTYPE) if static else None,
            np.empty(largest, dtype=INDEX_DTYPE),
        )
        for block_lo, block_hi in zip(edges, edges[1:]):
            if telemetry:
                t0 = perf()
            block_ranks, block_keys, offsets = self.workload.draw_rounds(
                start + block_lo, counts[block_lo:block_hi], out=buffers
            )
            bounds = offsets.tolist()
            if telemetry:
                t_draw += perf() - t0
                draw_blocks += 1
            i = block_lo
            while i < block_hi:
                now = self.now + 1.0
                if telemetry:
                    t0 = perf()
                # A span opens like any round: churn moves, then a due
                # content refresh lands before the queries, matching the
                # event-engine staleness loop (advance -> refresh -> query).
                if self.churn is not None:
                    transitions += self.state.flip(
                        self.inputs.churn_flips(self.state.online, self.churn)
                    )
                if self._next_refresh is not None and now >= self._next_refresh:
                    self.state.bump_versions()
                    refreshes += 1
                    self._next_refresh += self.content_refresh_period
                if maintenance_scale is not None:
                    maintenance = [
                        maintenance_scale
                        * lane.membership.online_fraction(self.state.online)
                        for lane in lanes
                    ]
                # A span every lane can take.
                end = min(
                    self._span_end(
                        lane, i, block_lo, bounds, now, now - start, recorder
                    )
                    for lane, recorder in zip(lanes, recorders)
                )
                if telemetry:
                    t1 = perf()
                    t_maintain += t1 - t0
                lo, hi = bounds[i - block_lo], bounds[end - block_lo]
                steps = self._step_span(
                    now, counts[i:end],
                    None if block_ranks is None else block_ranks[lo:hi],
                    block_keys[lo:hi], reports,
                )
                if telemetry:
                    t2 = perf()
                    t_queries += t2 - t1
                # Book the span round by round, in round order: float
                # totals are order-sensitive, and a window closes only on
                # the span's last round, after all of its writes.
                for j in range(end - i):
                    self.now += 1.0
                    elapsed = self.now - start
                    for (
                        lane, totals, recorder, index_size, cost,
                        (accepted, hits, charges),
                    ) in zip(
                        lanes, lane_totals, recorders, index_sizes,
                        maintenance, steps,
                    ):
                        totals[MessageCategory.MAINTENANCE] += cost
                        for category, amounts in charges:
                            totals[category] += amounts[j]
                        self._step_updates(lane, totals)
                        recorder.record(accepted[j], hits[j])
                        recorder.maybe_close(elapsed, index_size)
                if telemetry:
                    t_post += perf() - t2
                spans += 1
                i = end
                if beat is not None and i % HEARTBEAT_ROUNDS == 0:
                    beat(i)

        if beat is not None:
            beat(rounds)

        for lane, report, totals, recorder, index_size in zip(
            lanes, reports, lane_totals, recorders, index_sizes
        ):
            # Close the trailing partial window (duration % window != 0)
            # so the tail queries reach hit_rate_series.
            recorder.flush(self.now - start, index_size)
            report.churn_transitions = transitions
            report.content_refreshes = refreshes
            report.messages_by_category = {
                category: total for category, total in totals.items() if total
            }
            report.hit_rate_series = recorder.hit_rate_series
            report.index_size_series = recorder.index_size_series
            report.final_index_size = self._reported_index_size(
                lane, self.now
            )
            if recorder.index_size_series:
                report.mean_index_size = sum(
                    size for _, size in recorder.index_size_series
                ) / len(recorder.index_size_series)
            else:
                report.mean_index_size = float(report.final_index_size)
            report.key_ttl = lane.key_ttl
        elapsed_seconds = perf_counter() - started
        for report in reports:
            report.elapsed_seconds = elapsed_seconds / len(reports)
        self.reports = reports
        if telemetry:
            # Phases carry slash-joined names so they nest under
            # kernel.run in the profile tree (and under any enclosing
            # span, e.g. sweep.grid, via the thread's span stack).
            obs.add_duration("kernel.run", elapsed_seconds)
            obs.add_duration("kernel.run/draw", t_draw, n=draw_blocks)
            obs.add_duration("kernel.run/round.maintain", t_maintain, n=rounds)
            obs.add_duration("kernel.run/round.queries", t_queries, n=rounds)
            obs.add_duration("kernel.run/round.post", t_post, n=rounds)
            obs.count("kernel.runs", len(lanes))
            obs.count("kernel.rounds", rounds * len(lanes))
            obs.count("kernel.spans", spans)
            cpu, faults, preempted = obs.cpu_and_faults()
            obs.count("rusage.kernel.cpu_s", cpu - usage[0])
            obs.count("rusage.kernel.minflt", faults - usage[1])
            obs.count("rusage.kernel.nivcsw", preempted - usage[2])
            if not self._reads_times:
                obs.count("kernel.runs.unexpiring")
            if self._shared_lanes > shared_before:
                obs.count(
                    "kernel.lanes.shared", self._shared_lanes - shared_before
                )
            obs.count("kernel.queries", sum(r.queries for r in reports))
            obs.sample_peak_rss("kernel")
        return reports[0]

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span_end(
        self,
        lane: _Lane,
        first: int,
        block_lo: int,
        bounds: list[int],
        now: float,
        elapsed: float,
        recorder: WindowRecorder,
    ) -> int:
        """One past the last round of the span ``lane`` can take from
        round ``first`` (run-relative, at ``now``, ``elapsed`` rounds into
        the run) of the draw block starting at ``block_lo``, whose round
        ``b`` holds its queries ``bounds[b]:bounds[b + 1]``.

        A span covers more than one round only where its own queries'
        writes are the only state changes and none of them can expire
        inside it: no churn (which moves state between rounds), and, under
        the selection algorithm, a positive keyTtl longer than the span, so
        an entry any of its rounds writes is still live at its last. No
        content refresh may fall due after its first round, and no window
        or heartbeat before its last. Its queries fit
        :data:`SPAN_QUERIES`.
        """
        adaptive = lane.policy.adaptive
        if self.churn is not None or (adaptive and not lane.key_ttl > 0):
            return first + 1
        b = first - block_lo
        fits = bisect_right(bounds, bounds[b] + SPAN_QUERIES) - 1 - b
        size = min(max(fits, 1), HEARTBEAT_ROUNDS - first % HEARTBEAT_ROUNDS)
        if adaptive:
            size = min(size, 1 + _rounds_before(now + 1.0, now + lane.key_ttl))
        if self._next_refresh is not None:
            size = min(size, 1 + _rounds_before(now + 1.0, self._next_refresh))
        if recorder.enabled:
            size = min(size, 1 + _rounds_before(elapsed, recorder.next_at))
        return first + size

    def _step_span(
        self,
        now: float,
        counts: np.ndarray,
        ranks: Optional[np.ndarray],
        keys: np.ndarray,
        reports: list[FastSimReport],
    ) -> list[tuple[list[int], list[int], _Charges]]:
        """Process the query batches of one span in one numpy pass.

        Round ``j`` of the span runs at ``now + j`` with ``counts[j]``
        queries; ``ranks`` and ``keys`` hold them all in round order
        (``ranks`` may be ``None`` where no static index reads them).
        Returns, for each lane (tallied into its report in ``reports``),
        per-round ``accepted`` and ``hits`` and the message charges,
        ``(category, per-round amounts)`` pairs the caller books round by
        round. ``accepted`` counts the queries that actually ran (none
        when nobody is online to originate one), so the window recorder
        and the report always describe the same query population.

        The span's first contacts with the index are found once for all
        lanes, and only when some lane has a non-member to charge: where
        every lane's members are every peer, gateway discoveries are 0
        by construction, and without churn the origins they would come
        from are not drawn.
        """
        span = _Span(now, counts)
        count = keys.size
        if count == 0 or (
            self.churn is not None and not self.state.online.any()
        ):
            # No queries, or nobody online to originate one this round —
            # the event engine cannot draw an origin either. Drop the batch.
            idle = [0] * span.size
            return [(idle, idle, [])] * len(reports)
        for report in reports:
            report.queries += count
        lanes = zip(self.lanes, reports)
        # The lanes run one strategy, so they take the same inputs: the
        # span's origins are drawn once for all of them, and its first
        # contacts with the index found once.
        policy = self.lanes[0].policy
        if not policy.runs_dht:
            return [
                self._span_broadcast(lane, span, report)
                for lane, report in lanes
            ]
        indexed = None if policy.adaptive else np.less_equal(
            ranks, policy.index_ranks,
            out=self._scratch.get("static.indexed", count, bool),
        )
        # Where every lane's members are every peer, no first contact can
        # be a non-member: none is looked for, and ``seen``, which only
        # finding them reads, stays as it is. Without churn nothing else
        # reads child 4, so the origins are not drawn either.
        everyone = all(
            lane.membership.num_members == self.params.num_peers
            for lane in self.lanes
        )
        if everyone and self.churn is None:
            contacts = None
        else:
            origins = self._draw_origins(count)
            contacts = (
                None if everyone
                else self._first_contacts(span, origins, indexed)
            )
        if indexed is not None:
            return [
                self._span_static(lane, span, indexed, contacts, report)
                for lane, report in lanes
            ]
        return [
            (span.counts, decision.hits,
             self._gateway_charges(lane, span, contacts, report)
             + self._price(lane, span, decision, report))
            for (lane, report), decision in zip(
                lanes, self._decide(span, keys)
            )
        ]

    def _span_broadcast(
        self, lane: _Lane, span: _Span, report: FastSimReport
    ) -> tuple[list[int], list[int], _Charges]:
        """noIndex: every query broadcasts; no DHT, no gateway traffic."""
        count = sum(span.counts)
        resolved_mask, p_resolve = self._resolve_draws(count)
        resolved = int(resolved_mask.sum())
        report.answered += resolved
        report.unresolved += count - resolved
        walks = self._walk_charges(lane, span.counts, p_resolve)
        return span.counts, [0] * span.size, [
            (MessageCategory.UNSTRUCTURED_SEARCH, walks)
        ]

    def _span_static(
        self,
        lane: _Lane,
        span: _Span,
        indexed: np.ndarray,
        contacts: Optional[tuple[np.ndarray, Optional[np.ndarray]]],
        report: FastSimReport,
    ) -> tuple[list[int], list[int], _Charges]:
        """A static index: the indexed ranks (``indexed`` selects their
        queries) are preloaded with infinite TTL at *every* replica group
        member, so even under churn the rerouted responsible answers
        directly (all hits, no flood traffic); the rest broadcast. With
        every rank indexed (indexAll) no resolution is drawn and no walk
        charged."""
        count = indexed.size
        hits = span.tally(indexed)
        charges = self._gateway_charges(lane, span, contacts, report)
        index_hits = sum(hits)
        misses = count - index_hits
        resolved_mask, p_resolve = self._resolve_draws(misses)
        resolved = int(resolved_mask.sum())
        report.index_hits += index_hits
        report.answered += index_hits + resolved
        report.unresolved += misses - resolved
        lookup = self._lookup_cost(lane)
        charges.append(
            (MessageCategory.INDEX_SEARCH, [lookup * hit for hit in hits])
        )
        charges.append((
            MessageCategory.UNSTRUCTURED_SEARCH,
            self._walk_charges(
                lane, [c - hit for c, hit in zip(span.counts, hits)],
                p_resolve,
            ),
        ))
        return span.counts, hits, charges

    def _unexpiring(self, rounds: int) -> tuple[Optional[np.ndarray], bool]:
        """The plane of the keys ever written, none yet, of a run of
        ``rounds`` rounds whose lanes may read one (``None`` in any other
        run), and whether some lane reads a write time in the run.

        Only queries move an entry when there is no churn, no content
        refresh (nor a version plane from :meth:`FastSimState.bump_versions`)
        and every lane is adaptive. Write times a caller made before the
        run (:attr:`FastSimState.has_write_times`) can be below 1.0, so
        that run keeps no plane. Every lane reads it throughout a run
        whose last round is before every lane's ``1.0 + keyTtl``
        (:meth:`_reads_plane`).
        """
        if (
            self.churn is not None
            or self._next_refresh is not None
            or self.state.indexed_version is not None
            or self.state.has_write_times
            or not all(lane.policy.adaptive for lane in self.lanes)
        ):
            return None, True
        last_round = self.now + rounds
        return np.zeros(self.params.n_keys, dtype=bool), not all(
            1.0 + lane.key_ttl > last_round for lane in self.lanes
        )

    def _decide(self, span: _Span, keys: np.ndarray) -> list[_Decision]:
        """Every lane's decision on one span's queries (the same object
        for the lanes that share one): the lanes that read the plane
        (:meth:`_reads_plane`) share one by first occurrence, and every
        other lane tests its write times (:meth:`_decision`). The last of
        those writes the span's times after every lane read them; where
        none tests them, they are written here if a lane of the run reads
        them.
        """
        lanes = self.lanes
        last_round = span.now + (span.size - 1)
        on_plane = [self._reads_plane(lane, last_round) for lane in lanes]
        timed = [lane for lane, reads in zip(lanes, on_plane) if not reads]
        shared = self._first_occurrence(span, keys) if any(on_plane) else None
        self._shared_lanes += max(len(lanes) - len(timed) - 1, 0)
        written = None
        if timed:
            written = np.take(
                self.state.written_at, keys,
                out=self._scratch.get("select.written", keys.size, TIME_DTYPE),
            )
        elif self._reads_times:
            self._write_times(span, keys)
        # In lane order, so the writer (the last timed lane) decides last.
        return [
            shared if reads else self._decision(
                lane.key_ttl, span, keys, written, lane is timed[-1]
            )
            for lane, reads in zip(lanes, on_plane)
        ]

    def _reads_plane(self, lane: _Lane, last_round: float) -> bool:
        """Whether ``lane`` reads the plane up to round ``last_round``.

        A write time is at least 1.0, so where a lane's ``1.0 + keyTtl``
        is after ``last_round`` it finds every written entry live until
        then, and every other entry dead. The bound is summed in floats,
        as the liveness test adds, so it holds for any keyTtl; a keyTtl
        of 0 never meets it.
        """
        return self._plane is not None and 1.0 + lane.key_ttl > last_round

    def _write_times(self, span: _Span, keys: np.ndarray) -> None:
        """Write the span's entries where every query rearmed or
        re-inserted its key: round by round in round order, so a key's
        last round in the span sets it."""
        lo = 0
        for j, round_count in enumerate(span.counts):
            self.state.write(keys[lo:lo + round_count], span.now + j)
            lo += round_count

    def _decision(
        self,
        key_ttl: float,
        span: _Span,
        keys: np.ndarray,
        written: np.ndarray,
        write: bool,
    ) -> _Decision:
        """The Section 5.1 query path on one span's queries under
        ``key_ttl``: which queries hit, which miss, and what follows.

        ``written`` holds the write times the span's keys open with. With
        ``write`` the span's entries are written; without, the index plane
        is left as found.
        """
        state = self.state
        scratch = self._scratch
        count = keys.size

        # Liveness: an entry written at ``t`` lives while ``t + keyTtl``
        # is strictly after the query's round (same strict > as
        # state.index_size), in preallocated scratch. A never-written key
        # under an infinite keyTtl sums to NaN, which is not live.
        with np.errstate(invalid="ignore"):
            expiries = np.add(
                written, key_ttl,
                out=scratch.get("select.expiry", count, TIME_DTYPE),
            )
        nows = span.now if span.rounds is None else np.add(
            span.rounds, span.now,
            out=scratch.get("select.now", count, TIME_DTYPE),
        )
        live = np.greater(expiries, nows, out=scratch.get("select.live", count, bool))
        cc = self.churn_costs
        if cc is not None and cc.turnover_miss > 0.0:
            # Responsible-peer turnover: a query for a live key can still
            # miss when the entry sits behind offline members; the event
            # engine then walks and re-inserts it like any other miss.
            # (live &= ~(live & (draw < t)) reduces to live &= draw >= t;
            # the uniform draw itself is unchanged.)
            draws = self.inputs.turnover(
                scratch.get("select.turnover", count, PROB_DTYPE)
            )
            kept = np.greater_equal(
                draws, cc.turnover_miss, out=scratch.get("select.kept", count, bool)
            )
            np.logical_and(live, kept, out=live)
        not_live = np.logical_not(
            live, out=scratch.get("select.notlive", count, bool)
        )
        # The keys of the live queries are gathered only where a path
        # reads them: most spans (no churn, no refresh) never do.
        miss_keys = keys[not_live]
        miss_rounds = rehits = None

        if key_ttl > 0:
            if span.rounds is None:
                unique_miss, multiplicity = np.unique(
                    miss_keys, return_counts=True
                )
            else:
                # Every query of the span writes its round's time and the
                # span is shorter than keyTtl, so a key met in an earlier
                # round of the span hits. Liveness only falls from round to
                # round: a key misses at most once — in its first round,
                # and only if none of its queries is live. Mark the keys
                # met live in written_at itself (the round-ordered writes
                # below overwrite every key of the span; without ``write``
                # the marked times are put back), then keep each unmarked
                # key's earliest not-live round.
                marked = keys[live]
                state.written_at[marked] = np.inf
                pairs, pair_counts = np.unique(
                    miss_keys * span.size + span.rounds[not_live],
                    return_counts=True,
                )
                pair_keys = pairs // span.size
                missed = np.ones(pairs.size, dtype=bool)
                np.not_equal(pair_keys[1:], pair_keys[:-1], out=missed[1:])
                missed &= state.written_at[pair_keys] != np.inf
                if not write:
                    state.written_at[marked] = written[live]
                unique_miss = pair_keys[missed]
                multiplicity = pair_counts[missed]
                miss_rounds = pairs[missed] % span.size
                if state.indexed_version is not None:
                    # The other pairs hit an entry an earlier round of the
                    # span served: counted stale below.
                    served = ~missed
                    rehits = np.repeat(pair_keys[served], pair_counts[served])
            # First occurrence of a missing key misses; once its broadcast
            # resolves and re-inserts it, the round's later duplicates hit.
            resolved_mask, p_resolve = self._resolve_draws(unique_miss.size)
            # A resolved key misses only on its first occurrence (later
            # duplicates hit), an unresolved key on every occurrence; a
            # never-indexed key's misses are all cold.
            cold_weights = np.where(resolved_mask, 1, multiplicity)
            miss_events = int(cold_weights.sum())
            inserts = unique_miss[resolved_mask]
            stale = state.stale_count(keys, live)
            # Expected walk messages per unique missing key over the
            # resolution draw (Rao-Blackwellised; see _walk_charges):
            # resolve -> one resolved walk, fail -> every occurrence
            # re-walks and exhausts.
            walk_events = multiplicity
            walk_p = p_resolve
        else:
            # Degenerate keyTtl = 0 (a one-round span): every entry is
            # written at ``now`` and so is dead for every query after it —
            # nothing is live, every occurrence misses, and a resolved one
            # re-inserts a key that expires on arrival.
            unique_miss, multiplicity = np.unique(miss_keys, return_counts=True)
            miss_events = count
            resolved_mask, p_resolve = self._resolve_draws(count)
            inserts = miss_keys[resolved_mask]
            # Every occurrence misses, but a never-indexed key misses cold
            # only up to its first resolved occurrence (in batch order),
            # which indexes it.
            resolved = resolved_mask[np.argsort(miss_keys, kind="stable")]
            resolved_before = np.cumsum(resolved) - resolved
            group = np.repeat(np.arange(unique_miss.size), multiplicity)
            first = np.cumsum(multiplicity) - multiplicity
            leading = resolved_before == resolved_before[first][group]
            cold_weights = np.bincount(group[leading], minlength=unique_miss.size)
            stale = 0
            walk_events = 1  # every miss-event walks exactly once
            walk_p = p_resolve

        # In both TTL regimes insertions == number of resolved broadcasts.
        insertions = inserts.size
        unresolved = miss_events - insertions

        # Cold-miss attribution (StrategyReport's overhead source IV), per
        # occurrence like the event engine's SimulatedStrategy tally. A
        # key was indexed before the span iff its write time is finite:
        # every insert writes one, and nothing writes -inf back (a missed
        # key is never marked).
        cold = int(cold_weights[state.written_at[unique_miss] == -np.inf].sum())

        # State transitions: hits rearm, resolved misses (re)insert — and
        # a re-insert always fetches the *current* content version. Under
        # keyTtl = 0 an insert writes ``now``: dead on arrival, but it
        # leaves the key marked as indexed.
        if not write:
            pass
        elif unresolved:
            # Only under churn, whose spans are one round: an unresolved
            # miss writes nothing.
            state.write(keys[live], span.now)
            state.write(inserts, span.now)
        else:
            self._write_times(span, keys)
        state.capture_versions(inserts)
        if rehits is not None:
            # Read after the capture: stale unless an earlier round of the
            # span re-inserted the key.
            stale += state.stale_count(rehits)

        if miss_rounds is None:
            misses, inserted = [miss_events], [insertions]
        else:
            # Without churn each missed key misses once and is re-inserted.
            misses = inserted = np.bincount(
                miss_rounds, minlength=span.size
            ).tolist()
        walks = None
        if cc is not None:
            # Expected walk messages over the resolution draw: a resolved
            # key pays one resolved walk, an unresolved one re-walks and
            # exhausts on every occurrence.
            walks = float((
                walk_p * cc.resolved_walk
                + (1.0 - walk_p) * walk_events * cc.failed_walk
            ).sum())
        return _Decision(
            [c - m for c, m in zip(span.counts, misses)], misses, inserted,
            count, miss_events, insertions, unresolved, cold, stale, walks,
        )

    def _first_occurrence(self, span: _Span, keys: np.ndarray) -> _Decision:
        """The Section 5.1 query path on one span's queries for a lane
        whose ``1.0 + keyTtl`` is after the span's last round: a query
        hits iff its key is in the plane of the keys ever written or
        occurred earlier in the span.

        A key outside the plane has never been written, so it misses once,
        cold, at its first occurrence; its broadcast resolves (there is no
        churn) and inserts it, and its later occurrences hit. Only the
        misses are sorted, and the inserted keys join the plane.
        """
        count = keys.size
        plane = self._plane
        missed = np.take(
            plane, keys, out=self._scratch.get("first.missed", count, bool)
        )
        np.logical_not(missed, out=missed)
        miss_keys = keys[missed]
        if span.rounds is None:
            inserts = _distinct(miss_keys)
            misses = [inserts.size]
        else:
            # One sort of the misses' (key, round) pairs packed into an
            # int64 orders each key's rounds; its first pair is its miss.
            pairs = _distinct(miss_keys * span.size + span.rounds[missed])
            pair_keys = pairs // span.size
            first = np.ones(pairs.size, dtype=bool)
            np.not_equal(pair_keys[1:], pair_keys[:-1], out=first[1:])
            inserts = pair_keys[first]
            misses = np.bincount(
                pairs[first] % span.size, minlength=span.size
            ).tolist()
        plane[inserts] = True
        new = inserts.size
        return _Decision(
            hits=[c - m for c, m in zip(span.counts, misses)],
            misses=misses, inserted=misses, count=count, miss_events=new,
            insertions=new, unresolved=0, cold=new, stale=0, walks=None,
        )

    def _price(
        self, lane: _Lane, span: _Span, decision: _Decision,
        report: FastSimReport,
    ) -> _Charges:
        """Count ``decision`` into ``lane``'s ``report``; returns its
        lookup, flood and walk charges at the lane's costs (Section 5.1 /
        Eq. 17 event for event)."""
        decision.tally(report)
        misses, inserted = decision.misses, decision.inserted
        cc = self.churn_costs
        if cc is None:
            costs = lane.costs
            return [
                (MessageCategory.INDEX_SEARCH, [
                    costs.lookup * (c + i)
                    for c, i in zip(span.counts, inserted)
                ]),
                (MessageCategory.REPLICA_FLOOD, [
                    costs.flood * (m + i) for m, i in zip(misses, inserted)
                ]),
                (MessageCategory.UNSTRUCTURED_SEARCH, [
                    costs.walk * m for m in misses
                ]),
            ]
        # Churn spans are one round.
        insertions, miss_events = decision.insertions, decision.miss_events
        return [
            (MessageCategory.INDEX_SEARCH, [
                cc.lookup * decision.count + cc.miss_lookup * insertions
            ]),
            (MessageCategory.REPLICA_FLOOD, [
                cc.miss_flood * miss_events
                + cc.insert_flood * insertions
                + cc.hit_flood_fraction * cc.hit_flood
                * (decision.count - miss_events)
            ]),
            (MessageCategory.UNSTRUCTURED_SEARCH, [decision.walks]),
        ]

    def _step_updates(
        self, lane: _Lane, totals: dict[MessageCategory, float]
    ) -> None:
        """Proactive updates of ``lane``'s preloaded keys (Eq. 9)."""
        lane.update_debt += lane.policy.updates_per_round(
            self.params.update_freq
        )
        whole = int(lane.update_debt)
        if whole:
            lane.update_debt -= whole
            # An update routes to the responsible peer and floods its
            # replica subnetwork, like the event engine's proactive_update
            # (= _insert_into_index: one lookup + one replica flood).
            cc = self.churn_costs
            if cc is None:
                totals[MessageCategory.INDEX_SEARCH] += (
                    lane.costs.lookup * whole
                )
                totals[MessageCategory.REPLICA_FLOOD] += (
                    lane.costs.flood * whole
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
        """Uniform origins among online peers (event engine parity) for
        a span's ``count`` queries."""
        if self.churn is None:
            return self.inputs.origins(count, self.params.num_peers)
        # Under churn a span is one round: its online peers are the pool.
        online = np.flatnonzero(self.state.online)
        return online[self.inputs.origins(count, online.size)]

    def _first_contacts(
        self, span: _Span, origins: np.ndarray, where: Optional[np.ndarray]
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The span's origins that query the index for the first time, and
        the round of the span each first does (``None`` in a one-round
        span): the same for every lane. ``where`` selects the queries that
        take the index path (``None``: all)."""
        rounds = span.rounds
        if where is not None:
            origins = origins[where]
            rounds = None if rounds is None else rounds[where]
        return self.state.first_contacts(origins, rounds, span.size)

    def _gateway_charges(
        self,
        lane: _Lane,
        span: _Span,
        contacts: Optional[tuple[np.ndarray, Optional[np.ndarray]]],
        report: FastSimReport,
    ) -> _Charges:
        """First index-path query per non-member origin pays bootstrap, in
        the round of the span the origin first appears in; ``contacts``
        are the span's first contacts (:meth:`_first_contacts`), ``None``
        where every lane's members are every peer (nothing to pay)."""
        if contacts is None:
            return []
        discoveries = lane.membership.discoveries(*contacts, span.size)
        new = sum(discoveries)
        if not new:
            return []
        report.gateway_discoveries += new
        per_discovery = lane.costs.gateway_discovery
        if self.churn is not None:
            # Offline candidates force extra probe pairs (geometric).
            availability = max(self.churn.availability, 1e-6)
            per_discovery /= availability
        return [(
            MessageCategory.MEMBERSHIP,
            [per_discovery * found for found in discoveries],
        )]

    def _lookup_cost(self, lane: _Lane) -> float:
        """Per-lookup messages, availability-adjusted under churn."""
        if self.churn_costs is not None:
            return self.churn_costs.lookup
        return lane.costs.lookup

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
            # of two fresh allocations per span.
            return self._ones(count)
        scratch = self._scratch
        # Drawn at the instantaneous online fraction, not the stationary
        # one, so a transient mass departure immediately shows up as
        # unresolvable searches.
        online_replicas = self.inputs.replica_online(
            count, self.config.replication, self.state.online_fraction
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
        draws = self.inputs.resolve(
            scratch.get("resolve.draws", count, PROB_DTYPE)
        )
        mask = np.less(draws, p, out=scratch.get("resolve.mask", count, bool))
        return mask, p

    def _walk_charges(
        self, lane: _Lane, searches: list[int], p_resolve: np.ndarray
    ) -> list[float]:
        """Per-round charges of ``searches[j]`` broadcast searches, in
        expectation over resolution."""
        cc = self.churn_costs
        if cc is None:
            return [lane.costs.walk * count for count in searches]
        # Under churn a span is one round.
        (count,) = searches
        expected_resolved = float(p_resolve.sum())
        return [
            expected_resolved * cc.resolved_walk
            + (count - expected_resolved) * cc.failed_walk
        ]

    def _reported_index_size(self, lane: _Lane, now: float) -> int:
        if not lane.policy.adaptive:
            return lane.policy.preloaded_ranks
        if self._reads_plane(lane, now):
            return int(np.count_nonzero(self._plane))
        return self.state.index_size(now, lane.key_ttl)


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
    )
    return kernel.run(duration, window=window)
