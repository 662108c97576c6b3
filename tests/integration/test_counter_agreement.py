"""Both engines count the selection algorithm's overheads alike.

``insertions``, ``reinsertions``, ``cold_misses`` and ``unresolved`` sit
on :class:`~repro.pdht.strategies.StrategyReport`, so the event engine's
:class:`~repro.pdht.strategies.SimulatedStrategy` and the vectorized
kernel report them side by side. With trace replay and no churn both
engines see the identical query sequence, so every counter is one
number on both, not merely close: ``==``, never a tolerance. The cases
are the ones ROADMAP item 3 measured for ``queries``, ``answered``,
``index_hits`` and ``mean_index_size``, each with content refresh off
and every 50 rounds (ROADMAP 3(a)). partialIdeal agrees on the
stationary trace; after a shift the two engines define its oracle
differently (item 3(b)), so its rank-swap and flash-crowd cases are
strict ``xfail``s that turn into plain tests when 3(b) lands. Under
content refresh the static indexes (indexAll, partialIdeal) disagree on
``stale_hits``: strict ``xfail``s too, until the kernel counts them.
"""

from __future__ import annotations

import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.experiments.scenario import simulation_scenario
from repro.fastsim.kernel import PerOpCosts, run_fastsim
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy
from repro.sim.rng import RandomStreams
from repro.workloads import (
    FlashCrowd,
    RankSwap,
    StationaryZipf,
    TraceReplay,
    record_trace,
)

pytestmark = pytest.mark.slow

ROUNDS = 300
#: Message prices only: no count below depends on them.
COSTS = PerOpCosts(
    lookup=1.0, flood=1.0, walk=1.0, gateway_discovery=2.0,
    maintenance_per_round=1.0, num_active_peers=2,
)
COUNTERS = (
    "queries", "answered", "index_hits", "stale_hits", "content_refreshes",
    "insertions", "reinsertions", "cold_misses", "unresolved",
)
PARAMS = simulation_scenario(scale=0.02)
ZIPF = ZipfDistribution(PARAMS.n_keys, PARAMS.alpha)
#: The measured split behind partialIdeal's strict xfails.
PARTIAL_IDEAL_SPLIT = (
    "ROADMAP 3(b): the event engine preloads the top maxRank keys once "
    "and inserts a shifted-in oracle key on its first miss; the kernel "
    "counts every rank <= maxRank as a hit. On the rank-swap trace the "
    "event engine reports 3,146 index hits, 65 insertions and 65 cold "
    "misses, the kernel 3,211, 0 and 0"
)
#: The measured split behind the static indexes' strict xfails under
#: content refresh.
STATIC_STALENESS_SPLIT = (
    "ROADMAP 3(b): the kernel's _span_static never counts staleness and "
    "never draws the keys the event engine's proactive updates rewrite. "
    "On the stationary trace at refresh period 50 the event engine reports "
    "3,263 stale hits under indexAll and 2,683 under partialIdeal, the "
    "kernel 0 and 0"
)
SOURCES = {
    "stationary": StationaryZipf(),
    "rank-swap": RankSwap(ROUNDS / 2),
    "flash-crowd": FlashCrowd(ROUNDS / 3, cold_rank=PARAMS.n_keys),
}


@pytest.fixture(scope="module", params=sorted(SOURCES))
def trace(request) -> TraceReplay:
    stream = SOURCES[request.param].build(
        ZIPF, RandomStreams(11).get("trace")
    )
    return TraceReplay(
        record_trace(stream, duration=ROUNDS, queries_per_round=13)
    )


STRATEGIES = ("noIndex", "indexAll", "partialSelection", "partialIdeal")


@pytest.mark.parametrize("key_ttl", (3.1, 61.9))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_selection_counters_equal_across_engines(
    request, trace, strategy, key_ttl
):
    _assert_counters_equal(request, trace, strategy, key_ttl, None)


@pytest.mark.parametrize("key_ttl", (3.1, 61.9))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_selection_counters_equal_under_content_refresh(
    request, trace, strategy, key_ttl
):
    """The cases above with every key's content refreshed every 50
    rounds (ROADMAP 3(a)); a test of its own, so the case ids above keep
    naming the runs without refresh."""
    _assert_counters_equal(request, trace, strategy, key_ttl, 50.0)


def _assert_counters_equal(
    request, trace, strategy, key_ttl, content_refresh_period
):
    reason = None
    if strategy == "partialIdeal" and request.node.callspec.params[
        "trace"
    ] != "stationary":
        reason = PARTIAL_IDEAL_SPLIT
    elif content_refresh_period is not None and strategy in (
        "indexAll", "partialIdeal"
    ):
        reason = STATIC_STALENESS_SPLIT
    if reason is not None:
        request.applymarker(pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=reason
        ))
    config = PdhtConfig.from_scenario(PARAMS, key_ttl=key_ttl)
    event = SimulatedStrategy(
        PARAMS, config=config, strategy=strategy,
        workload=trace.build(ZIPF, RandomStreams(0).get("replay")),
        content_refresh_period=content_refresh_period,
    ).run(ROUNDS)
    kernel = run_fastsim(
        PARAMS, config=config, strategy=strategy, duration=ROUNDS,
        workload=trace.build(ZIPF, RandomStreams(0).get("replay")),
        costs=COSTS, content_refresh_period=content_refresh_period,
    )
    assert {name: getattr(event, name) for name in COUNTERS} == {
        name: getattr(kernel, name) for name in COUNTERS
    }
    assert event.queries == 13 * ROUNDS
    if strategy == "partialSelection":
        # A miss is cold or a reinsertion, and nothing is unresolved
        # without churn: every miss inserts.
        assert event.cold_misses > 0 and event.reinsertions > 0
        assert event.insertions == event.cold_misses + event.reinsertions
