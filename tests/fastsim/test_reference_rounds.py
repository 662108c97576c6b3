"""An exact scalar reference for the kernel's rounds (no churn).

``Reference`` is the round written the obvious way, for each of the four
strategies, reading what a strategy does from the same
:class:`~repro.analysis.strategies.StrategyPolicy` the kernel reads
(``strategy_setup``: ``index_ranks``, ``preloaded_ranks``, ``key_ttl``,
``runs_dht``, ``updates_per_round``), as plain dicts and loops:

* ``partialSelection`` — the Section 5.1 query path: a dict of expiries,
  one query at a time in batch order, as
  :class:`~repro.pdht.network.PdhtNetwork` answers them — a live entry
  (``expires_at > now``, the event index's strict test) hits and rearms
  to ``now + keyTtl``; anything else misses, broadcasts, resolves
  (without churn every broadcast does) and is re-inserted with the
  current content version;
* ``indexAll`` / ``partialIdeal`` — a static index of the top
  ``index_ranks`` ranks: those queries are index lookups (and their
  origins discover a gateway), the rest broadcast;
* ``noIndex`` — every query broadcasts, and no DHT runs;

plus routing maintenance whenever a DHT runs and the proactive updates
of the preloaded keys (Eq. 9: a lookup and a replica flood each, paid
whole, the fraction carried to the next round). It imports no kernel
code. It draws its counts, DHT members and origins through its own
:class:`~repro.fastsim.inputs.RoundInputs` of the run's seed — the
object the kernel draws them through — and its queries from an
identically seeded copy of the workload, round by round; without churn
those are every random input a round has.

The kernel's report must equal the reference's field for field: every
integer, both series, and the per-category message totals, which both
accumulate round by round in the same order and so compare with ``==``.

The kernel runs its rounds in spans (``FastSimKernel._step_span``: one
numpy pass over consecutive rounds in which only the span's own queries
move a key's liveness), and the reference knows nothing of them. So the
comparison runs under the module defaults and under four span regimes:
the span budget ``SPAN_QUERIES`` at 1 query (every round a span of its
own), 3 and 10^6, and 10^6 with ``DRAW_BLOCK`` at 64 (spans cut short by
draw blocks). The generated scenarios run from 40 queries a round down to
one every five rounds, so a span can cover hundreds of rounds; keyTtl
values include whole numbers (a span as long as keyTtl) and the float
just above one (a span one round longer than ``keyTtl - 1``, unless the
rounded expiry says otherwise); windows and content refreshes fall inside
spans and draw blocks. A kernel runs once. ``test_expiry_inside_a_span``
pins a key whose entry expires partway through a span.

A selection run with no churn, no refresh and a fresh state keeps a
plane of the keys ever written (``FastSimKernel._unexpiring``), and
decides each span whose last round is before ``1.0 + keyTtl`` by first
occurrence from it; every later span tests the write times, which every
span writes unless the whole run is before ``1.0 + keyTtl`` (the regime
where no entry can expire, which allocates no write time).
``UNEXPIRING_CASES`` hold the regime, and runs just past its bound, to
the reference under every span regime, with and without a window;
``test_a_lane_reads_the_plane_until_its_key_ttl_ends`` holds a keyTtl
that ends inside the run to it, and the path each span takes; a
Hypothesis property puts keyTtl at and one ulp either side of
``last_round - 1.0``, so a run falls in or out of the regime by the
float sum; an opening index (write times a caller made before the run,
below 1.0 or not) takes the general path and equals the reference
started on it; a run outside the regime writes its times and equals the
reference; and a span stepped outside ``run`` takes the general path.

Mutations of ``src/`` this module was run against, each caught:

* the span cap off by one (a span one round longer than the keyTtl,
  refresh or window cap allows);
* liveness tested at the span's first round for all of its queries;
* expiries written last-round-first;
* a gateway discovery booked in the span's first round;
* a window closed before its round's writes (its index size sampled as
  the span opens);
* a key met live earlier in the span counted as a miss in a later round
  (the live-key mark dropped);
* under keyTtl = 0 (where nothing is ever live), a hit counted: a
  repeated key's later occurrences hitting, as under a positive keyTtl,
  or the round's first query hitting;
* under keyTtl = 0, the cold-miss attribution taken over all occurrences
  (a duplicate of a key its first occurrence just indexed counted cold);
* under keyTtl = 0, one insert per distinct key instead of one per
  resolved occurrence;
* ``>=`` for ``>`` in the regime's bound
  (``test_a_run_falls_in_or_out_of_the_regime_by_one_ulp``);
* ``>=`` for ``>`` in a span's bound of the plane, the bound taken from
  the span's first round instead of its last, a keyTtl-0 lane admitted
  to the plane, a span's write times skipped where it reads only the
  plane but a later span reads write times, the plane left unwritten in
  a run that reads write times, and the plane's count taken as the index
  size past ``1.0 + keyTtl`` (each caught by
  ``test_a_lane_reads_the_plane_until_its_key_ttl_ends``, but the
  keyTtl-0 one, which a pinned example of
  ``test_kernel_equals_scalar_reference`` catches; the full list, with
  every catcher, is in ``test_lanes.py``);
* an insert left out of the plane, or a key's miss booked in its last
  round of the span instead of its first (every reference test);
* the regime taken on write times a caller made before the run
  (``test_an_opening_index_takes_the_general_path``);
* a second run let through (``test_a_second_run_raises``).

Without churn every broadcast resolves, so under keyTtl = 0 "only a
key's first occurrence is cold" equals the right attribution here; the
unresolved case is ``TestZeroTtlSelectionBranch`` in ``test_kernel.py``,
which catches that mutation.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import STRATEGY_NAMES, strategy_setup
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim import FastSimKernel, PerOpCosts
from repro.fastsim import kernel as kernel_module
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.metrics import FastSimReport
from repro.pdht.config import PdhtConfig
from repro.sim.metrics import MessageCategory
from repro.workloads import RankSwap

PARAMS = ScenarioParameters(
    num_peers=200, n_keys=300, storage_per_peer=100, replication=20,
    alpha=1.2, query_freq=0.2, update_freq=0.01, env=1.0 / 14.0,
    dup=1.8, dup2=1.8,
)  # 40 queries a round: the hot keys repeat within a round. Updates:
# 3 a round under indexAll, 1.29 under partialIdeal (maxRank 129).
#: Per-peer query rates: 40 queries a round, 2, and one every 5 rounds.
QUERY_FREQS = (0.2, 0.01, 0.001)
LOOKUP, FLOOD, WALK, DISCOVERY, MAINTENANCE = 3.7, 11.3, 123.45, 2.3, 17.9
PINNED_IDEAL_SEED = 0
TALLIES = (
    "queries", "answered", "index_hits", "insertions", "reinsertions",
    "cold_misses", "unresolved", "gateway_discoveries", "churn_transitions",
    "stale_hits", "content_refreshes",
)
FIELDS = TALLIES + (
    "key_ttl", "final_index_size", "mean_index_size", "hit_rate_series",
    "index_size_series", "messages_by_category",
)
#: (SPAN_QUERIES, DRAW_BLOCK) the span regimes run the kernel under.
REGIMES = {
    "budget-1": (1, kernel_module.DRAW_BLOCK),
    "budget-3": (3, kernel_module.DRAW_BLOCK),
    "budget-1e6": (10**6, kernel_module.DRAW_BLOCK),
    "block-64": (10**6, 64),
}


class Reference:
    def __init__(self, params, policy, seed, workload, refresh_period):
        self.params = params
        self.inputs = RoundInputs(seed)
        self.has_gateway = set(
            self.inputs.members(params.num_peers, policy.num_members).tolist()
        )
        self.policy, self.key_ttl, self.workload = policy, policy.key_ttl, workload
        self.expires: dict[int, float] = {}
        self.version: dict[int, int] = {}  # content version an entry serves
        self.ever_indexed: set[int] = set()
        self.content = 0
        self.refresh_period = refresh_period
        self.next_refresh = refresh_period
        self.update_debt = 0.0
        self.now = 0.0

    def index_size(self):
        if not self.policy.adaptive:
            return self.policy.preloaded_ranks
        return sum(expiry > self.now for expiry in self.expires.values())

    def discover(self, origin):
        """1 if ``origin`` pays gateway discovery now, else 0."""
        if origin in self.has_gateway:
            return 0
        self.has_gateway.add(origin)
        return 1

    def origins(self, count):
        return self.inputs.origins(count, self.params.num_peers)

    def selection_round(self, now, queries, out, totals):
        origins = self.origins(len(queries))
        discoveries = sum(self.discover(origin) for origin in origins.tolist())
        if discoveries:
            out["gateway_discoveries"] += discoveries
            totals[MessageCategory.MEMBERSHIP] += DISCOVERY * discoveries
        hits = misses = 0
        for _rank, key in queries:
            if self.expires.get(key, -math.inf) > now:
                hits += 1
                out["stale_hits"] += self.version[key] != self.content
            else:  # broadcast, resolved, re-inserted
                misses += 1
                cold = key not in self.ever_indexed
                out["cold_misses" if cold else "reinsertions"] += 1
                self.ever_indexed.add(key)
                self.version[key] = self.content
            self.expires[key] = now + self.key_ttl
        out["insertions"] += misses
        totals[MessageCategory.INDEX_SEARCH] += LOOKUP * (len(queries) + misses)
        totals[MessageCategory.REPLICA_FLOOD] += FLOOD * (misses + misses)
        totals[MessageCategory.UNSTRUCTURED_SEARCH] += WALK * misses
        return hits

    def static_round(self, queries, out, totals):
        origins = self.origins(len(queries))
        hits = discoveries = 0
        for (rank, _key), origin in zip(queries, origins.tolist()):
            if rank <= self.policy.index_ranks:  # preloaded: an index lookup
                hits += 1
                discoveries += self.discover(origin)
        if discoveries:
            out["gateway_discoveries"] += discoveries
            totals[MessageCategory.MEMBERSHIP] += DISCOVERY * discoveries
        totals[MessageCategory.INDEX_SEARCH] += LOOKUP * hits
        totals[MessageCategory.UNSTRUCTURED_SEARCH] += WALK * (len(queries) - hits)
        return hits

    def run(self, rounds, window):
        policy = self.policy
        out = dict.fromkeys(TALLIES, 0)
        totals = dict.fromkeys(MessageCategory, 0.0)
        rates, sizes = [], []
        start, closes_at, window_queries, window_hits = self.now, window, 0, 0

        def close(elapsed):
            rate = window_hits / window_queries if window_queries else 0.0
            rates.append((elapsed, rate))
            sizes.append((elapsed, self.index_size()))

        counts = self.inputs.counts(
            self.workload, self.now, rounds, self.params.network_query_rate
        )
        for count in counts.tolist():
            self.now += 1.0
            now = self.now
            if self.refresh_period is not None and now >= self.next_refresh:
                self.content += 1  # before the round's queries
                out["content_refreshes"] += 1
                self.next_refresh += self.refresh_period
            if policy.runs_dht:
                totals[MessageCategory.MAINTENANCE] += MAINTENANCE
            queries = self.workload.draw(now, count)
            hits = 0
            if count:
                if policy.adaptive:
                    hits = self.selection_round(now, queries, out, totals)
                elif policy.runs_dht:
                    hits = self.static_round(queries, out, totals)
                else:  # noIndex: every query broadcasts
                    totals[MessageCategory.UNSTRUCTURED_SEARCH] += WALK * count
                out["queries"] += count
                out["index_hits"] += hits
                out["answered"] += count
            # Eq. 9: whole updates are sent, the fraction carries over.
            self.update_debt += policy.updates_per_round(self.params.update_freq)
            whole = int(self.update_debt)
            if whole:
                self.update_debt -= whole
                totals[MessageCategory.INDEX_SEARCH] += LOOKUP * whole
                totals[MessageCategory.REPLICA_FLOOD] += FLOOD * whole
            window_queries += count
            window_hits += hits
            if window > 0 and now - start >= closes_at:
                close(now - start)
                window_queries = window_hits = 0
                closes_at += window
        if window > 0 and self.now - start > closes_at - window:
            close(self.now - start)
        out.update(
            key_ttl=self.key_ttl, final_index_size=self.index_size(),
            hit_rate_series=rates, index_size_series=sizes,
            messages_by_category={c: t for c, t in totals.items() if t},
        )
        out["mean_index_size"] = (
            sum(size for _, size in sizes) / len(sizes)
            if sizes else float(out["final_index_size"])
        )
        return out


ttls = st.one_of(
    st.just(0.0),
    st.floats(0.05, 0.95),  # below one round
    st.floats(1.05, 9.95),  # fractional
    st.integers(1, 12).map(float),  # a span exactly keyTtl rounds long
    # Just above a whole number: one round more than keyTtl - 1 fits,
    # unless now + keyTtl rounds down onto the whole number.
    st.integers(1, 12).map(lambda n: math.nextafter(float(n), math.inf)),
    st.just(1000.0),  # beyond the whole run
)


@st.composite
def cases(draw):
    query_freq = draw(st.sampled_from(QUERY_FREQS))
    # Long runs at low rates, so spans of many rounds form and end.
    rounds = draw(st.integers(1, 40 if query_freq == QUERY_FREQS[0] else 300))
    windows = {
        "none": [0.0],
        "divides": [w for w in range(1, rounds + 1) if rounds % w == 0],
        "remainder": [w for w in range(2, rounds + 4) if rounds % w],
    }[draw(st.sampled_from(("none", "divides", "remainder")))]
    return dict(
        strategy=draw(st.sampled_from(STRATEGY_NAMES)),
        seed=draw(st.integers(0, 2**16)),
        query_freq=query_freq,
        rounds=rounds,
        key_ttl=draw(ttls),
        window=float(draw(st.sampled_from(windows))),
        refresh=draw(st.none() | st.floats(1.0, float(rounds))),
        swap_at=draw(st.none() | st.integers(1, 60)),
    )


def workload_pair(case, params):
    if case["swap_at"] is None:
        return [RoundInputs(case["seed"]).workload(params) for _ in "ab"]
    model = RankSwap(shift_time=float(case["swap_at"]))
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    return [
        model.build(zipf, np.random.default_rng(case["seed"])) for _ in "ab"
    ]


def kernel_and_reference(case, base=PARAMS, opening=None):
    """The kernel and the reference of ``case`` on ``base`` at its query
    rate, both started on the write times ``opening`` (a key at ``-inf``
    was never written) if given."""
    params = base.with_query_freq(case["query_freq"])
    mine, theirs = workload_pair(case, params)
    config = PdhtConfig.from_scenario(params).with_ttl(case["key_ttl"])
    policy = strategy_setup(params, config, case["strategy"])
    kernel = FastSimKernel(
        params,
        config=config,
        strategy=case["strategy"],
        seed=case["seed"],
        workload=mine,
        costs=PerOpCosts(
            LOOKUP, FLOOD, WALK, DISCOVERY, MAINTENANCE, policy.num_members
        ),
        content_refresh_period=case["refresh"],
    )
    reference = Reference(params, policy, case["seed"], theirs, case["refresh"])
    if opening is not None:
        kernel.state.written_at[:] = opening
        for key in np.flatnonzero(opening > -np.inf).tolist():
            reference.expires[key] = opening[key] + case["key_ttl"]
            reference.ever_indexed.add(key)
            reference.version[key] = 0
    return kernel, reference


def check_against_reference(case, base=PARAMS, opening=None):
    """Run ``case`` through the kernel and the reference
    (:func:`kernel_and_reference`); returns the kernel."""
    kernel, reference = kernel_and_reference(case, base, opening)
    report = kernel.run(float(case["rounds"]), window=case["window"])
    expected = reference.run(case["rounds"], case["window"])
    assert {name: getattr(report, name) for name in FIELDS} == expected
    return kernel


def with_pinned_cases(test):
    """Pinned cases: stale hits across refreshes; cold duplicates under
    keyTtl = 0 across a rank swap; partialIdeal queries at rank maxRank (129)
    with a fractional update rate; indexAll across a rank swap; noIndex;
    at 2 queries a round, spans of exactly keyTtl = 4 rounds with
    refreshes and windows inside them, and spans capped by a keyTtl just
    above 2; at one query every 5 rounds, a whole run of 260 rounds
    crossing the heartbeat and window edges."""
    pinned = [
        dict(strategy="partialSelection", seed=3, query_freq=0.2, rounds=50,
             key_ttl=4.0, window=7.0, refresh=9.0, swap_at=None),
        dict(strategy="partialSelection", seed=5, query_freq=0.2, rounds=36,
             key_ttl=0.0, window=6.0, refresh=None, swap_at=16),
        dict(strategy="partialIdeal", seed=PINNED_IDEAL_SEED, query_freq=0.2,
             rounds=40, key_ttl=4.0, window=9.0, refresh=5.0, swap_at=None),
        dict(strategy="indexAll", seed=1, query_freq=0.2, rounds=22,
             key_ttl=0.0, window=4.0, refresh=None, swap_at=9),
        dict(strategy="noIndex", seed=2, query_freq=0.2, rounds=12,
             key_ttl=1.0, window=5.0, refresh=3.0, swap_at=None),
        dict(strategy="partialSelection", seed=11, query_freq=0.01,
             rounds=150, key_ttl=4.0, window=25.0, refresh=17.5,
             swap_at=50),
        dict(strategy="partialSelection", seed=11, query_freq=0.01,
             rounds=30, key_ttl=math.nextafter(2.0, math.inf), window=25.0,
             refresh=17.5, swap_at=50),
        dict(strategy="partialSelection", seed=12, query_freq=0.001,
             rounds=260, key_ttl=1000.0, window=7.0, refresh=None,
             swap_at=None),
        dict(strategy="indexAll", seed=13, query_freq=0.01, rounds=90,
             key_ttl=float("inf"), window=13.0, refresh=None, swap_at=None),
    ]
    for case in pinned:
        test = example(case=case)(test)
    return test


@settings(max_examples=120, deadline=None)
@given(case=cases())
@with_pinned_cases
def test_kernel_equals_scalar_reference(case):
    check_against_reference(case)


@pytest.mark.parametrize("budget, block", REGIMES.values(), ids=REGIMES)
@settings(max_examples=80, deadline=None)
@given(case=cases())
@with_pinned_cases
def test_kernel_spans_equal_scalar_reference(budget, block, case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "SPAN_QUERIES", budget)
        patch.setattr(kernel_module, "DRAW_BLOCK", block)
        check_against_reference(case)


#: PARAMS with ten index slots a peer: indexAll needs every peer, and so
#: does partialSelection from a keyTtl of 30 rounds on at 40 queries a
#: round (1000 rounds on at 2).
EVERY_PEER = replace(PARAMS, storage_per_peer=10)
FULL_MEMBERSHIP_CASES = [
    dict(strategy="indexAll", seed=4, query_freq=0.2, rounds=40,
         key_ttl=math.inf, window=7.0, refresh=9.0, swap_at=None),
    dict(strategy="indexAll", seed=6, query_freq=0.01, rounds=120,
         key_ttl=0.0, window=25.0, refresh=None, swap_at=40),
    dict(strategy="partialSelection", seed=8, query_freq=0.2, rounds=50,
         key_ttl=30.0, window=7.0, refresh=9.0, swap_at=None),
    dict(strategy="partialSelection", seed=9, query_freq=0.01, rounds=150,
         key_ttl=1000.0, window=0.0, refresh=None, swap_at=60),
]


@pytest.mark.parametrize("budget, block", REGIMES.values(), ids=REGIMES)
@pytest.mark.parametrize(
    "case", FULL_MEMBERSHIP_CASES,
    ids=lambda case: f"{case['strategy']}-{case['query_freq']}",
)
def test_every_peer_a_member_equals_scalar_reference(budget, block, case):
    # The kernel looks for no first contact when every peer is a member;
    # the reference still asks each origin whether it has a gateway.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "SPAN_QUERIES", budget)
        patch.setattr(kernel_module, "DRAW_BLOCK", block)
        kernel = check_against_reference(case, EVERY_PEER)
    [lane] = kernel.lanes
    assert lane.membership.num_members == EVERY_PEER.num_peers
    assert lane.membership.is_member.all()
    assert not kernel.state.seen.any()
    assert kernel.reports[0].queries > 0


def test_expiry_inside_a_span():
    """One span of rounds 1-4 at keyTtl 10, against the entries it opens
    with: key 1 expires at 2.5, so its query in round 1 hits and rearms
    it and its query in round 3 hits too; key 2 expires at 2.5 and is
    queried only in round 3 — a (re-insertion) miss; key 3 is cold and
    queried in rounds 2 and 4 — one cold miss; key 4 is live throughout.
    Round 4 writes key 3's time after round 2 did."""
    kernel = FastSimKernel(
        PARAMS, config=PdhtConfig.from_scenario(PARAMS).with_ttl(10.0),
        seed=0, costs=PerOpCosts(
            LOOKUP, FLOOD, WALK, DISCOVERY, MAINTENANCE, 2
        ),
    )
    written = kernel.state.written_at
    written[[1, 2, 4]] = [-7.5, -7.5, 40.0]  # expiring at 2.5, 2.5 and 50
    report = FastSimReport(
        strategy="partialSelection", params=PARAMS, duration=4.0
    )
    keys = np.array([1, 4, 3, 1, 2, 2, 3, 4])
    [(accepted, hits, charges)] = kernel._step_span(
        1.0, np.array([2, 1, 3, 2]), keys + 1, keys, [report]
    )
    assert accepted == [2, 1, 3, 2]
    assert hits == [2, 0, 2, 2]  # round 3: key 2 misses, its duplicate hits
    assert (report.cold_misses, report.reinsertions) == (1, 1)
    assert written[[1, 2, 3, 4]].tolist() == [3.0, 3.0, 4.0, 4.0]
    index = dict(charges)[MessageCategory.INDEX_SEARCH]
    assert index == [LOOKUP * 2, LOOKUP * 2, LOOKUP * 4, LOOKUP * 2]


def test_pinned_partial_ideal_case_queries_the_boundary_rank():
    # The pinned partialIdeal case is the one that tells <= from < on
    # index_ranks: some query there is for rank maxRank exactly.
    policy = strategy_setup(
        PARAMS, PdhtConfig.from_scenario(PARAMS), "partialIdeal"
    )
    assert 0 < policy.index_ranks < PARAMS.n_keys
    workload = RoundInputs(PINNED_IDEAL_SEED).workload(PARAMS)
    reference = Reference(PARAMS, policy, PINNED_IDEAL_SEED, workload, None)
    counts = reference.inputs.counts(
        workload, 0.0, 40, PARAMS.network_query_rate
    )
    ranks = [rank for now, count in enumerate(counts.tolist(), 1)
             for rank, _ in workload.draw(float(now), count)]
    assert policy.index_ranks in ranks


# ----------------------------------------------------------------------
# Runs in which no entry can expire
# ----------------------------------------------------------------------
def _record_regimes(patch):
    """Record, per ``FastSimKernel.run``, whether it was decided in the
    regime where no entry can expire (``_unexpiring`` gave a plane that
    every lane reads throughout)."""
    taken = []
    unexpiring = FastSimKernel._unexpiring

    def spy(self, rounds):
        plane, reads_times = unexpiring(self, rounds)
        taken.append(plane is not None and not reads_times)
        return plane, reads_times

    patch.setattr(FastSimKernel, "_unexpiring", spy)
    return taken


#: Selection runs, with the regime each is decided in: keyTtl outlives
#: the run with spans of one round (40 queries a round), of hundreds (one
#: query every five rounds) and across a rank swap; and runs a few rounds
#: longer than keyTtl, which take the general path.
UNEXPIRING_CASES = [
    (dict(strategy="partialSelection", seed=21, query_freq=0.2, rounds=40,
          key_ttl=1000.0, swap_at=None), [True]),
    (dict(strategy="partialSelection", seed=22, query_freq=0.01, rounds=230,
          key_ttl=300.0, swap_at=60), [True]),
    (dict(strategy="partialSelection", seed=23, query_freq=0.001,
          rounds=300, key_ttl=math.inf, swap_at=None), [True]),
    (dict(strategy="partialSelection", seed=0, query_freq=0.2, rounds=23,
          key_ttl=4.0, swap_at=None), [False]),
    (dict(strategy="partialSelection", seed=24, query_freq=0.01, rounds=55,
          key_ttl=30.0, swap_at=None), [False]),
]


@pytest.mark.parametrize("budget, block", REGIMES.values(), ids=REGIMES)
@pytest.mark.parametrize("window", (0.0, 7.0), ids=("no-window", "window"))
@pytest.mark.parametrize(
    "case, regimes", UNEXPIRING_CASES,
    ids=[
        f"{case['query_freq']}-{case['key_ttl']}-{len(regimes)}runs"
        for case, regimes in UNEXPIRING_CASES
    ],
)
def test_unexpiring_runs_equal_scalar_reference(
    budget, block, window, case, regimes
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "SPAN_QUERIES", budget)
        patch.setattr(kernel_module, "DRAW_BLOCK", block)
        taken = _record_regimes(patch)
        check_against_reference({**case, "window": window, "refresh": None})
    assert taken == regimes


@pytest.mark.parametrize("budget, block", REGIMES.values(), ids=REGIMES)
@pytest.mark.parametrize("window", (0.0, 7.0), ids=("no-window", "window"))
def test_a_lane_reads_the_plane_until_its_key_ttl_ends(budget, block, window):
    # keyTtl 30 over 55 rounds: a span whose last round is before 31
    # decides by first occurrence, every later span by its write times,
    # which every span wrote.
    case = dict(
        strategy="partialSelection", seed=24, query_freq=0.01, rounds=55,
        key_ttl=30.0, window=window, refresh=None, swap_at=None,
    )
    paths = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "SPAN_QUERIES", budget)
        patch.setattr(kernel_module, "DRAW_BLOCK", block)
        for name in ("_first_occurrence", "_decision"):
            original = getattr(FastSimKernel, name)

            def spy(self, *args, _name=name, _original=original):
                # The span is _first_occurrence's first argument and
                # _decision's second.
                span = args[_name == "_decision"]
                paths.append((_name, span.now + (span.size - 1)))
                return _original(self, *args)

            patch.setattr(FastSimKernel, name, spy)
        taken = _record_regimes(patch)
        check_against_reference(case)
    assert taken == [False]
    assert {name for name, _ in paths} == {"_first_occurrence", "_decision"}
    for name, last_round in paths:
        assert name == (
            "_first_occurrence" if last_round < 1.0 + 30.0 else "_decision"
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    query_freq=st.sampled_from(QUERY_FREQS),
    rounds=st.integers(2, 300),
    side=st.sampled_from((-math.inf, None, math.inf)),
    window=st.sampled_from((0.0, 7.0)),
)
@example(  # 1.0 + nextafter(255, inf) rounds to 256: out of the regime
    seed=5, query_freq=0.01, rounds=256, side=math.inf, window=0.0,
).via("pinned")
@example(
    seed=6, query_freq=0.01, rounds=120, side=math.inf, window=7.0,
).via("pinned")
def test_a_run_falls_in_or_out_of_the_regime_by_one_ulp(
    seed, query_freq, rounds, side, window
):
    # keyTtl one ulp either side of (or at) last_round - 1.0: an entry
    # written in round 1 is dead in the last round unless the float sum
    # 1.0 + keyTtl is after it, and the run is in the regime iff it is.
    rounds = min(rounds, 40) if query_freq == QUERY_FREQS[0] else rounds
    last_round = float(rounds)
    key_ttl = last_round - 1.0
    if side is not None:
        key_ttl = math.nextafter(key_ttl, side)
    case = dict(
        strategy="partialSelection", seed=seed, query_freq=query_freq,
        rounds=rounds, key_ttl=key_ttl, window=window, refresh=None,
        swap_at=None,
    )
    with pytest.MonkeyPatch.context() as patch:
        taken = _record_regimes(patch)
        check_against_reference(case)
    assert taken == [1.0 + key_ttl > last_round]
    assert taken == [side == math.inf and rounds & (rounds - 1) != 0]


@settings(max_examples=60, deadline=None)
@given(case=cases().filter(lambda case: case["strategy"] == "partialSelection"))
def test_a_run_outside_the_regime_writes_its_times(case):
    # A run in the regime allocates no write time; one outside it does
    # once a query reaches the index, and they then hold each key's last
    # query round: the reference's expiry less keyTtl.
    kernel, reference = kernel_and_reference(case)
    with pytest.MonkeyPatch.context() as patch:
        taken = _record_regimes(patch)
        report = kernel.run(float(case["rounds"]), window=case["window"])
    expected = reference.run(case["rounds"], case["window"])
    assert {name: getattr(report, name) for name in FIELDS} == expected
    if taken == [True]:
        assert not kernel.state.has_write_times
        return
    assert kernel.state.has_write_times == (report.queries > 0)
    written = kernel.state.written_at
    assert sorted(np.flatnonzero(written > -np.inf).tolist()) == sorted(
        reference.expires
    )
    for key, expiry in reference.expires.items():
        assert written[key] + case["key_ttl"] == expiry


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    query_freq=st.sampled_from(QUERY_FREQS),
    rounds=st.integers(1, 120),
    key_ttl=st.sampled_from((10.0, 60.0, 1000.0, math.inf)),
    opening=st.integers(0, 2**16),
    low=st.sampled_from((-80.0, 1.0)),
)
def test_an_opening_index_takes_the_general_path(
    seed, query_freq, rounds, key_ttl, opening, low
):
    # Write times a caller made before the run, below 1.0 or at any
    # round of it: the run does not take the regime (its plane would
    # call such a key cold), and equals the reference started on them.
    rounds = min(rounds, 40) if query_freq == QUERY_FREQS[0] else rounds
    rng = np.random.default_rng(opening)
    written = np.full(PARAMS.n_keys, -np.inf)
    chosen = rng.random(PARAMS.n_keys) < 0.3
    written[chosen] = rng.uniform(low, low + 80.0, int(chosen.sum()))
    case = dict(
        strategy="partialSelection", seed=seed, query_freq=query_freq,
        rounds=rounds, key_ttl=key_ttl, window=5.0, refresh=None,
        swap_at=None,
    )
    with pytest.MonkeyPatch.context() as patch:
        taken = _record_regimes(patch)
        check_against_reference(case, opening=written)
    assert taken == [False]


def _selection_kernel(key_ttl):
    return FastSimKernel(
        PARAMS, config=PdhtConfig.from_scenario(PARAMS).with_ttl(key_ttl),
        seed=0,
        costs=PerOpCosts(LOOKUP, FLOOD, WALK, DISCOVERY, MAINTENANCE, 2),
    )


@pytest.mark.parametrize("key_ttl", (4.0, 1000.0), ids=("general", "regime"))
def test_a_second_run_raises(key_ttl):
    # A kernel runs once; the refusal leaves its state and reports alone.
    kernel = _selection_kernel(key_ttl)
    report = kernel.run(8.0, window=3.0)
    stream = kernel.workload.rng.bit_generator.state
    with pytest.raises(ParameterError, match="runs once"):
        kernel.run(8.0)
    assert kernel.reports == [report] and kernel.now == 8.0
    assert kernel.workload.rng.bit_generator.state == stream
    assert kernel.state.has_write_times == (key_ttl == 4.0)


def test_a_span_stepped_outside_run_takes_the_general_path(monkeypatch):
    # test_expiry_inside_a_span steps a span on its own, on write times
    # no run writes: only run() decides the regime.
    calls = []
    for name in ("_decision", "_first_occurrence"):
        original = getattr(FastSimKernel, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(FastSimKernel, name, spy)
    report = FastSimReport(
        strategy="partialSelection", params=PARAMS, duration=2.0
    )
    keys = np.array([1, 4, 3, 1, 2])
    _selection_kernel(1000.0)._step_span(
        1.0, np.array([3, 2]), keys + 1, keys, [report]
    )
    assert calls == ["_decision"]
    calls.clear()
    _selection_kernel(1000.0).run(3.0)
    assert calls and set(calls) == {"_first_occurrence"}
