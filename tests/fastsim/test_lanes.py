"""A kernel's lanes equal their runs alone.

Jobs that differ only in keyTtl run as the lanes of one kernel
(``FastSimKernel.add_lane``, grouped by ``parallel.units``): one query
stream, one origin draw, one array of write times and one mask of peers
seen on the index path serve every lane, and each lane keeps its own
members, costs and report. The lanes whose ``1.0 + keyTtl`` is after a
span's last round (every write time is at least 1.0, so they see exactly
the keys ever written as live) share one decision of the span's hits and
misses, by first occurrence from the kernel's plane of those keys, and
price it each at its own costs; every other lane tests its write times.
A lane run alone follows the same rule, so a mutation of its bound
shows here only where the lanes' spans differ from the run alone's; the
scalar reference of ``test_reference_rounds.py`` holds the rule itself.
The property holds every lane's report ``==`` to ``run_fastsim``
of its config alone, on every field but the wall clock, over the four
strategies, 1-4 lanes and keyTtl values of 0, below a round,
fractional, whole (a span exactly keyTtl rounds long), one ulp either
side of a whole number of rounds inside the run (a lane leaves the
shared decision in mid-run), beyond the run and infinite, with and
without windows, at rates from 40 queries a round (one-round spans)
down to one every five rounds (spans of hundreds of rounds). Pinned
examples have only some lanes share, the last (writing) lane mortal or
among the sharing ones, and spans cut by windows across the round a
lane leaves. Write times a caller made before the run, below 1.0, keep
the plane from every lane
(``test_lanes_on_an_opening_index_below_one_equal_their_runs_alone``).

Mutations of ``src/`` this module was run against, each caught:

* the lanes' members drawn from one child-2 stream
  (``test_lanes_equal_their_runs_alone``,
  ``test_lanes_draw_the_members_of_their_runs``,
  ``test_run_many_equals_the_jobs_alone``);
* a lane reading the write times after the unit's write (the first lane
  writing instead of the last) (``test_lanes_equal_their_runs_alone``,
  ``test_run_many_equals_the_jobs_alone``);
* the span partition taking the longest span a lane allows instead of
  the shortest (``test_lanes_equal_their_runs_alone``);
* a churned job grouped with the other keyTtl values of its column
  (``test_units_group_exactly_the_key_ttl_columns``,
  ``test_churned_and_refreshed_jobs_run_alone``);
* ``>=`` for ``>`` in the bound of the plane's lanes
  (``test_lanes_equal_their_runs_alone``: the keyTtl-0 example;
  ``test_reference_rounds.py``: the budget-1 and budget-3 cases of
  ``test_a_lane_reads_the_plane_until_its_key_ttl_ends`` and the
  keyTtl-4 ``UNEXPIRING_CASES``);
* the bound taken from the span's first round instead of its last
  (``test_a_lane_reads_the_plane_until_its_key_ttl_ends``: the budget-1
  and budget-3 cases and every windowed one; no test here);
* a keyTtl-0 lane admitted to the plane (``test_reference_rounds.py``:
  a pinned keyTtl-0 example of ``test_kernel_equals_scalar_reference``;
  no test here);
* a span's write times skipped where every lane reads the plane but a
  lane reads write times later (``test_lanes_equal_their_runs_alone``:
  the keyTtl-0 example; every case of
  ``test_a_lane_reads_the_plane_until_its_key_ttl_ends``);
* the plane left unwritten in a run where some lane reads write times,
  while a lane still reads it (``test_lanes_equal_their_runs_alone``,
  ``test_lanes_whose_members_are_every_peer[adaptive]`` and ``[mixed]``,
  ``test_an_unexpiring_run_decides_once_for_every_lane[one-lane-can-expire]``;
  six of the eight cases of
  ``test_a_lane_reads_the_plane_until_its_key_ttl_ends``);
* the plane's count taken as the index size of a lane past its
  ``1.0 + keyTtl`` (the same four tests here; every case of
  ``test_a_lane_reads_the_plane_until_its_key_ttl_ends``);
* a span's first contacts left unmarked in the ``seen`` mask
  (``test_lanes_equal_their_runs_alone``);
* first contacts skipped when only some lanes have every peer as a
  member (``test_lanes_whose_members_are_every_peer[mixed]``);
* the origins of a kernel whose lanes have every peer as a member left
  undrawn under churn too, where the resolution draws follow them
  (``test_lanes_of_every_peer_draw_origins_only_under_churn``).

A run in which no lane's entries can expire takes one decision per span
for every lane and counts once as ``kernel.runs.unexpiring``
(``test_an_unexpiring_run_decides_once_for_every_lane``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import STRATEGY_NAMES
from repro.errors import ParameterError
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import FastSimKernel, PerOpCosts, run_fastsim
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.compare import churn_config_for_availability
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.parallel import FastSimJob, resolve_jobs, run_many, units
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig

PARAMS = ScenarioParameters(
    num_peers=200, n_keys=300, storage_per_peer=100, replication=20,
    alpha=1.2, query_freq=0.2, update_freq=0.01, env=1.0 / 14.0,
    dup=1.8, dup2=1.8,
)  # 40 queries a round
QUERY_FREQS = (0.2, 0.01, 0.001)

ttls = st.one_of(
    st.just(0.0),
    st.floats(0.05, 0.95),  # below one round
    st.floats(1.05, 9.95),  # fractional, shorter than most spans
    st.integers(1, 12).map(float),  # a span exactly keyTtl rounds long
    st.just(1000.0),  # beyond the whole run
    st.just(math.inf),
    # One ulp either side of a whole number of rounds inside the run: the
    # lane leaves the lanes that share a decision in mid-run, and one
    # ulp decides in which round.
    st.builds(
        math.nextafter, st.integers(1, 300).map(float),
        st.sampled_from((math.inf, -math.inf)),
    ),
)


def _costs(params, config):
    return PerOpCosts.analytical(params, config)


def _solo(params, config, case):
    return run_fastsim(
        params, config=config, duration=float(case["rounds"]),
        strategy=case["strategy"], seed=case["seed"],
        costs=_costs(params, config), window=case["window"],
    )


def _unwalled(report):
    return replace(report, elapsed_seconds=0.0)


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGY_NAMES),
    seed=st.integers(0, 2**16),
    query_freq=st.sampled_from(QUERY_FREQS),
    rounds=st.integers(1, 300),
    key_ttls=st.lists(ttls, min_size=1, max_size=4),
    window=st.sampled_from((0.0, 1.0, 7.0, 25.0)),
)
@example(  # spans of many rounds, cut short for the keyTtl-2 lane
    strategy="partialSelection", seed=7, query_freq=0.01, rounds=120,
    key_ttls=[40.0, 2.0, 1000.0], window=0.0,
).via("pinned")
@example(  # a keyTtl-0 lane makes every span one round, first or last
    strategy="partialSelection", seed=3, query_freq=0.2, rounds=20,
    key_ttls=[0.0, 4.0, math.inf, 0.0], window=6.0,
).via("pinned")
@example(  # two lanes share a decision, the last (writing) lane is mortal
    strategy="partialSelection", seed=11, query_freq=0.01, rounds=150,
    key_ttls=[math.inf, 1000.0, math.nextafter(30.0, -math.inf)],
    window=0.0,
).via("pinned")
@example(  # a mortal lane between two that share, the writer among them
    strategy="partialSelection", seed=5, query_freq=0.01, rounds=150,
    key_ttls=[1000.0, math.nextafter(30.0, math.inf), math.inf],
    window=0.0,
).via("pinned")
@example(  # spans cut by windows: the keyTtl-15 lane leaves the shared
    # decision in a span that opens before round 16 and ends after it
    strategy="partialSelection", seed=86, query_freq=0.2, rounds=20,
    key_ttls=[15.0, 1000.0], window=7.0,
).via("pinned")
@example(  # a span whose last round is exactly 1 + keyTtl: the keyTtl-6
    # lane's round-1 entries are dead there
    strategy="partialSelection", seed=19, query_freq=0.2, rounds=15,
    key_ttls=[6.0, 1000.0], window=7.0,
).via("pinned")
def test_lanes_equal_their_runs_alone(
    strategy, seed, query_freq, rounds, key_ttls, window
):
    params = PARAMS.with_query_freq(query_freq)
    rounds = min(rounds, 40) if query_freq == QUERY_FREQS[0] else rounds
    case = dict(strategy=strategy, seed=seed, rounds=rounds, window=window)
    configs = [
        PdhtConfig.from_scenario(params).with_ttl(key_ttl)
        for key_ttl in key_ttls
    ]
    first, *rest = configs
    kernel = FastSimKernel(
        params, config=first, strategy=strategy, seed=seed,
        costs=_costs(params, first),
    )
    for config in rest:
        kernel.add_lane(config, _costs(params, config))
    report = kernel.run(float(rounds), window=window)

    assert report is kernel.reports[0]
    assert len(kernel.reports) == len(configs)
    for config, lane_report in zip(configs, kernel.reports):
        assert _unwalled(lane_report) == _unwalled(_solo(params, config, case))
    assert sum(r.elapsed_seconds for r in kernel.reports) > 0


def test_lanes_no_entry_can_expire_for_share_one_decision(telemetry):
    # Spans of 20 rounds (the keyTtl-20 lane's longest): in the first,
    # no lane's keyTtl can expire an entry, and two lanes take the third's
    # decision; from round 21 on the keyTtl-20 lane decides alone.
    params = PARAMS.with_query_freq(0.01)
    config = PdhtConfig.from_scenario(params)
    kernel = FastSimKernel(params, config=config.with_ttl(math.inf), seed=1)
    kernel.add_lane(config.with_ttl(1000.0))
    kernel.add_lane(config.with_ttl(20.0))
    kernel.run(100.0)
    counters = telemetry.counters
    assert counters["kernel.spans"] == 5
    assert counters["kernel.lanes.shared"] == 2 + 4


def test_lanes_on_an_opening_index_below_one_equal_their_runs_alone(
    telemetry,
):
    # Write times a caller made before the run, in [-80, 0) on half the
    # keys: an entry the keyTtl-60 lane finds dead can be live for the
    # keyTtl-1000 lane, so the lanes keep no plane and share nothing.
    params = PARAMS.with_query_freq(0.05)
    rng = np.random.default_rng(0)
    opening = np.full(params.n_keys, -np.inf)
    half = rng.permutation(params.n_keys)[: params.n_keys // 2]
    opening[half] = rng.uniform(-80.0, 0.0, half.size)
    configs = [
        PdhtConfig.from_scenario(params).with_ttl(key_ttl)
        for key_ttl in (1000.0, 60.0)
    ]

    def kernel(configs):
        first, *rest = configs
        built = FastSimKernel(
            params, config=first, seed=3, costs=_costs(params, first)
        )
        for config in rest:
            built.add_lane(config, _costs(params, config))
        built.state.written_at[:] = opening
        built.run(40.0, window=7.0)
        return built

    lanes = kernel(configs)
    assert "kernel.lanes.shared" not in telemetry.counters
    for config, report in zip(configs, lanes.reports):
        [alone] = kernel([config]).reports
        assert _unwalled(report) == _unwalled(alone)


def test_lanes_draw_the_members_of_their_runs():
    params = PARAMS.with_query_freq(0.01)
    config = PdhtConfig.from_scenario(params)
    kernel = FastSimKernel(params, config=config, seed=5)
    kernel.add_lane(config.with_ttl(config.key_ttl * 4))
    kernel.add_lane(config)
    first, other, again = (lane.membership for lane in kernel.lanes)
    assert other.num_members != first.num_members
    assert (again.is_member == first.is_member).all()
    alone = FastSimKernel(params, config=config.with_ttl(config.key_ttl * 4), seed=5)
    assert (other.is_member == alone.lanes[0].membership.is_member).all()


def test_lanes_share_the_index_plane():
    # A lane adds its member mask and nothing per key; the peers that
    # found a gateway are the lane's members and the kernel's one mask of
    # peers seen on the index path.
    kernel = FastSimKernel(PARAMS, seed=0)
    for factor in (0.5, 2.0, 4.0):
        kernel.add_lane(kernel.config.with_ttl(kernel.config.key_ttl * factor))
    for lane in kernel.lanes:
        arrays = [
            value for value in vars(lane.membership).values()
            if isinstance(value, np.ndarray)
        ]
        assert [array.size for array in arrays] == [PARAMS.num_peers]
    per_peer = sorted(
        name for name, value in vars(kernel.state).items()
        if isinstance(value, np.ndarray) and value.size == PARAMS.num_peers
    )
    assert per_peer == ["online", "seen"]


#: PARAMS with ten index slots a peer: indexAll needs every peer, and so
#: does partialSelection at 40 queries a round from a keyTtl of 30 rounds
#: on; at keyTtl 4 it needs 113 of the 200.
EVERY_PEER = replace(PARAMS, storage_per_peer=10)


@pytest.mark.parametrize(
    "strategy, key_ttls, partial",
    [
        ("indexAll", [math.inf, 1000.0, 0.0], None),
        ("partialSelection", [30.0, 1000.0, math.inf], None),
        ("partialSelection", [1000.0, 4.0, math.inf], 1),  # one lane partial
    ],
    ids=["static", "adaptive", "mixed"],
)
def test_lanes_whose_members_are_every_peer(
    strategy, key_ttls, partial, telemetry
):
    # Such a lane's mask is every peer, with no draw from child 2. Where
    # every lane's is, no first contact is looked for and ``seen`` stays
    # empty; one partial lane brings the first contacts back for all.
    case = dict(strategy=strategy, seed=3, rounds=40, window=7.0)
    configs = [
        PdhtConfig.from_scenario(EVERY_PEER).with_ttl(key_ttl)
        for key_ttl in key_ttls
    ]
    first, *rest = configs
    kernel = FastSimKernel(
        EVERY_PEER, config=first, strategy=strategy, seed=3,
        costs=_costs(EVERY_PEER, first),
    )
    for config in rest:
        kernel.add_lane(config, _costs(EVERY_PEER, config))
    drawn = telemetry.counters.get("kernel.members.drawn", 0)
    assert drawn == (partial is not None)
    kernel.run(40.0, window=7.0)
    for index, (config, lane, report) in enumerate(
        zip(configs, kernel.lanes, kernel.reports)
    ):
        assert _unwalled(report) == _unwalled(_solo(EVERY_PEER, config, case))
        full = lane.membership.num_members == EVERY_PEER.num_peers
        assert full == (index != partial)
        assert lane.membership.is_member.all() == full
        assert (report.gateway_discoveries > 0) == (index == partial)
    assert kernel.state.seen.any() == (partial is not None)


def test_lanes_of_every_peer_leave_child_two_untouched(monkeypatch):
    asked = []
    members = RoundInputs.members

    def spy(self, population, count):
        asked.append(count)
        return members(self, population, count)

    monkeypatch.setattr(RoundInputs, "members", spy)
    config = PdhtConfig.from_scenario(EVERY_PEER)
    kernel = FastSimKernel(
        EVERY_PEER, config=config.with_ttl(math.inf), seed=0
    )
    kernel.add_lane(config.with_ttl(1000.0))
    kernel.run(5.0)
    assert asked == []
    mixed = FastSimKernel(EVERY_PEER, config=config.with_ttl(math.inf), seed=0)
    mixed.add_lane(config.with_ttl(4.0))
    assert asked == [113]


CHURN_COSTS = ChurnOpCosts(
    availability=0.5, lookup=2.0, miss_lookup=2.0, hit_flood=10.0,
    miss_flood=10.0, insert_flood=10.0, resolved_walk=20.0,
    failed_walk=20.0, walk_failure=0.2, hit_flood_fraction=0.0,
    turnover_miss=0.0, maintenance_per_round=10.0, num_active_peers=20,
)


class TestAddLane:
    def test_refuses_churn_and_content_refresh(self):
        config = PdhtConfig.from_scenario(PARAMS)
        churned = FastSimKernel(
            PARAMS, config=config, seed=0, costs=_costs(PARAMS, config),
            churn=ChurnConfig(mean_session=600.0, mean_offline=600.0),
            churn_costs=CHURN_COSTS,
        )
        refreshed = FastSimKernel(
            PARAMS, config=config, seed=0, costs=_costs(PARAMS, config),
            content_refresh_period=10.0,
        )
        for kernel in (churned, refreshed):
            with pytest.raises(ParameterError, match="churn or content"):
                kernel.add_lane(config.with_ttl(1.0))

    def test_refuses_a_config_that_differs_in_more_than_key_ttl(self):
        config = PdhtConfig.from_scenario(PARAMS)
        kernel = FastSimKernel(PARAMS, config=config, seed=0)
        with pytest.raises(ParameterError, match="only in key_ttl"):
            kernel.add_lane(replace(config, walkers=config.walkers + 1))

    def test_refuses_a_lane_after_the_first_run(self):
        kernel = FastSimKernel(PARAMS, seed=0)
        kernel.run(2.0)
        with pytest.raises(ParameterError, match="before the first run"):
            kernel.add_lane(kernel.config.with_ttl(1.0))


def _column(params, key_ttls, **fields):
    config = PdhtConfig.from_scenario(params)
    fields = {"seed": 2, "duration": 30.0, **fields}
    return [
        FastSimJob(
            params=params, config=config.with_ttl(config.key_ttl * factor),
            **fields,
        )
        for factor in key_ttls
    ]


def test_units_group_exactly_the_key_ttl_columns():
    params = simulation_scenario(scale=0.02)
    other = params.with_query_freq(params.query_freq * 2)
    churn = churn_config_for_availability(0.5)
    jobs = (
        _column(params, (0.5, 1.0))           # 0, 1: one unit
        + _column(other, (0.5,))              # 2: another scenario
        + _column(params, (2.0,))             # 3: joins 0 and 1
        + _column(params, (0.5, 1.0), churn=churn)   # 4, 5: churned
        + _column(params, (0.5, 1.0), content_refresh_period=10.0)  # 6, 7
        + _column(params, (0.5,), window=10.0)  # 8: another window
        + _column(params, (0.5,), strategy="indexAll")  # 9
        + _column(params, (0.5,), seed=3)  # 10: another seed
        + _column(params, (0.5,), duration=31.0)  # 11
        + _column(  # 12, 13: a workload of their own
            params, (0.5, 1.0), workload=RoundInputs(2).workload(params)
        )
    )
    resolved = [replace(job, costs=_costs(job.params, job.config)) for job in jobs]
    assert units(resolved) == [[0, 1, 3], [2]] + [[i] for i in range(4, 14)]


@pytest.mark.parametrize("workers", (1, 2))
def test_run_many_equals_the_jobs_alone(workers):
    params = simulation_scenario(scale=0.02)
    jobs = _column(params, (0.5, 1.0, 2.0)) + _column(
        params.with_query_freq(params.query_freq / 20), (0.5, 1.0, 2.0)
    )
    reports = run_many(jobs, workers=workers)
    for job, report in zip(resolve_jobs(jobs), reports):
        assert _unwalled(report) == _unwalled(job.run())


def test_churned_and_refreshed_jobs_run_alone():
    params = simulation_scenario(scale=0.02)
    jobs = _column(
        params, (0.5, 1.0), churn=churn_config_for_availability(0.75),
        churn_costs=CHURN_COSTS,
    ) + _column(params, (0.5, 1.0), content_refresh_period=7.0)
    reports = run_many(jobs, workers=1)
    for job, report in zip(resolve_jobs(jobs), reports):
        assert _unwalled(report) == _unwalled(job.run())


@pytest.mark.parametrize(
    "key_ttls, unexpiring",
    [([math.inf, 1000.0, 200.0], True), ([math.inf, 1000.0, 20.0], False)],
    ids=["every-lane-outlives-the-run", "one-lane-can-expire"],
)
def test_an_unexpiring_run_decides_once_for_every_lane(
    key_ttls, unexpiring, telemetry
):
    # The run is in the regime only if no lane's entries can expire in
    # it; then every span takes one decision for all three lanes, and
    # the run counts once, whatever its lanes.
    case = dict(strategy="partialSelection", seed=1, rounds=100, window=9.0)
    params = PARAMS.with_query_freq(0.01)
    configs = [
        PdhtConfig.from_scenario(params).with_ttl(key_ttl)
        for key_ttl in key_ttls
    ]
    first, *rest = configs
    kernel = FastSimKernel(
        params, config=first, seed=1, costs=_costs(params, first)
    )
    for config in rest:
        kernel.add_lane(config, _costs(params, config))
    kernel.run(100.0, window=9.0)
    counters = dict(telemetry.counters)
    assert counters.get("kernel.runs.unexpiring") == (1 if unexpiring else None)
    if unexpiring:
        assert counters["kernel.lanes.shared"] == 2 * counters["kernel.spans"]
    for config, report in zip(configs, kernel.reports):
        assert _unwalled(report) == _unwalled(_solo(params, config, case))


def test_lanes_of_every_peer_draw_origins_only_under_churn(monkeypatch):
    # Without churn child 4 feeds nothing but the origins, and only first
    # contacts read them; under churn the resolution draws follow them in
    # the stream, so they are still drawn, one per query.
    drawn = []
    origins = RoundInputs.origins

    def spy(self, count, population):
        drawn.append(count)
        return origins(self, count, population)

    monkeypatch.setattr(RoundInputs, "origins", spy)
    config = PdhtConfig.from_scenario(EVERY_PEER)
    kernel = FastSimKernel(EVERY_PEER, config=config.with_ttl(math.inf), seed=0)
    kernel.add_lane(config.with_ttl(1000.0))
    assert kernel.run(5.0).queries > 0
    assert drawn == []
    churned = FastSimKernel(
        EVERY_PEER, config=config, strategy="indexAll", seed=0,
        costs=_costs(EVERY_PEER, config),
        churn=ChurnConfig(mean_session=600.0, mean_offline=600.0),
        churn_costs=CHURN_COSTS,
    )
    [lane] = churned.lanes
    assert lane.membership.num_members == EVERY_PEER.num_peers
    report = churned.run(5.0)
    assert report.queries > 0
    assert sum(drawn) == report.queries
