"""Differential test: the event engine's staleness measurement as a
``SimulatedStrategy`` run against the hand-written loop it replaced.

A ``Cell`` with a ``content_refresh_period`` runs the selection strategy
through ``SimulatedStrategy.run``, which refreshes every key's content
after the round's clock advance and before the count draw, and counts
an index hit whose payload version predates the current one. It
replaced ``staleness_probe_event``, a second query loop beside
``SimulatedStrategy.run``, kept here verbatim as
``reference_staleness_probe``. ``(stale_hit_fraction, hit_rate)`` must
be ``==``, over seeds, keyTtl factors and refresh periods that are
fractional, ``inf`` and longer than the run.

Mutations run against the new code, each caught by
``test_cell_equals_the_replaced_loop`` (and the figure test) unless
another test is named:

* the refresh placed after the round's queries;
* a hit counted stale at the current version (``<=`` for ``<``);
* the refresh due only after its time (``>`` for ``>=``);
* the version bumped after the content is re-placed;
* the default ``queries`` / ``strategy`` streams in a refresh run;
* the stale check outside the ``via_index`` branch (a walk's payload is
  checked too) — ``test_a_churned_refresh_run_checks_index_hits_only``:
  a walk always finds the current version, so without churn the two
  agree, but a walk that finds nothing has no payload to check.

The refresh placed after the count draw (still before the queries) is
an equivalent mutant: the count and the re-placement draw from
different streams.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.errors import require_period
from repro.experiments.execution import Cell, Execution
from repro.experiments.scenario import simulation_scenario
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import key_name
from repro.sim.engine import whole_rounds

pytestmark = pytest.mark.slow


# ----------------------------------------------------------------------
# The replaced body, verbatim
# ----------------------------------------------------------------------
def reference_staleness_probe(
    params: ScenarioParameters,
    config: PdhtConfig,
    duration: float,
    refresh_period: float,
    seed: int = 0,
) -> tuple[float, float]:
    from repro.pdht.network import PdhtNetwork
    from repro.workloads.models import StationaryZipf

    rounds = whole_rounds(duration)
    require_period("refresh_period", refresh_period)
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    net = PdhtNetwork(params, config, seed=seed)
    versions = dict.fromkeys(range(params.n_keys), 0)
    net.publish_all({key_name(i): (i, 0) for i in versions})
    workload = StationaryZipf().build(
        zipf, net.streams.get("staleness-queries")
    )
    rate = params.network_query_rate
    rng = net.streams.get("staleness-counts")

    hits = stale_hits = queries = 0
    next_refresh = refresh_period
    for _ in range(rounds):
        net.advance(1.0)
        now = net.simulation.now
        if now >= next_refresh:
            for i in range(params.n_keys):
                versions[i] += 1
            net.refresh_content_all(
                {key_name(i): (i, version) for i, version in versions.items()}
            )
            next_refresh += refresh_period
        for _, key_index in workload.draw(now, int(rng.poisson(rate))):
            outcome = net.query(net.random_online_peer(), key_name(key_index))
            queries += 1
            if outcome.via_index:
                hits += 1
                _, version = outcome.value
                if version != versions[key_index]:
                    stale_hits += 1
    return (
        stale_hits / hits if hits else 0.0,
        hits / queries if queries else 0.0,
    )


# ----------------------------------------------------------------------
# The new path against it
# ----------------------------------------------------------------------
SCALE = 0.01  # 200 peers, 400 keys
QUERY_FREQ = 1.0 / 5.0  # ~40 queries per round
DURATION = 60.0

CASES = [
    # (seed, keyTtl factor, refresh period)
    (0, 1.0, 20.0),
    (1, 0.25, 10.0),
    (2, 4.0, 15.0),
    (3, 1.0, 12.5),
    (0, 4.0, math.inf),
    (1, 0.25, 500.0),  # longer than the run
]


@pytest.fixture(scope="module")
def scenario():
    params = simulation_scenario(scale=SCALE, query_freq=QUERY_FREQ)
    return params, PdhtConfig.from_scenario(params)


@pytest.mark.parametrize("seed, factor, period", CASES)
def test_cell_equals_the_replaced_loop(scenario, seed, factor, period):
    params, base = scenario
    config = base.with_ttl(base.key_ttl * factor)
    report = Cell(
        params, config, DURATION, seed=seed, content_refresh_period=period
    ).run()
    assert (report.stale_hit_fraction, report.hit_rate) == (
        reference_staleness_probe(params, config, DURATION, period, seed)
    )
    refreshes = 0 if math.isinf(period) else int(DURATION // period)
    assert report.content_refreshes == refreshes
    assert report.stale_hits <= report.index_hits
    if 0 < refreshes and factor >= 1.0:
        assert report.stale_hits > 0


def test_the_staleness_figure_equals_the_replaced_loop():
    # The event staleness figure at its defaults: three keyTtl factors,
    # 300 rounds, content refreshed every 100.
    from repro.experiments.figures import staleness_experiment

    params = simulation_scenario(scale=0.02)
    factors = (0.25, 1.0, 4.0)
    figure = staleness_experiment(
        params, ttl_factors=factors, execution=Execution("event")
    )
    base = PdhtConfig.from_scenario(params)
    expected = [
        reference_staleness_probe(
            params, base.with_ttl(base.key_ttl * factor), 300.0, 100.0
        )
        for factor in factors
    ]
    assert figure.series["stale hit fraction"] == [s for s, _ in expected]
    assert figure.series["hit rate"] == [rate for _, rate in expected]


def test_a_churned_refresh_run_checks_index_hits_only(scenario):
    # At 50% availability some walks find no replica online: a miss with
    # no payload. Only an index hit's payload is checked for staleness.
    params, config = scenario
    report = Cell(
        params, config, 40.0, seed=2, content_refresh_period=10.0,
        churn=ChurnConfig(mean_session=20.0, mean_offline=20.0),
    ).run()
    assert report.answered < report.queries
    assert 0 < report.stale_hits <= report.index_hits
    assert report.content_refreshes == 4
