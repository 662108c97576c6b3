"""Micro-benchmarks of the hot inner operations.

These are honest pytest-benchmark timings (many rounds) of the primitives
everything else is built on; regressions here slow every experiment.
"""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import solve_threshold
from repro.analysis.zipf import ZipfDistribution
from repro.dht import PGridDht
from repro.net.messages import MessageLog
from repro.net.node import PeerPopulation
from repro.pdht.ttl_cache import TtlKeyStore
from repro.sim.metrics import MessageMetrics
from repro.sim.rng import RandomStreams


def test_zipf_construction_40k(benchmark):
    benchmark(ZipfDistribution, 40_000, 1.2)


def test_zipf_sampling_10k(benchmark):
    zipf = ZipfDistribution(40_000, 1.2)
    rng = RandomStreams(0).get("bench")
    benchmark(zipf.sample_ranks, rng, 10_000)


@pytest.mark.parametrize("alpha", [0.8, 1.2])
def test_zipf_sampling_1m_of_320k_keys(benchmark, alpha):
    # Sweep scale: a CDF (2.5 MB) that does not fit the cache a probe at
    # a time, which is what the guide table is for.
    zipf = ZipfDistribution(320_000, alpha)
    rng = RandomStreams(0).get("bench")
    benchmark(zipf.sample_ranks, rng, 1_000_000)


def test_threshold_solve_paper_scale(benchmark):
    params = ScenarioParameters.paper_scenario()
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    benchmark(solve_threshold, params, zipf)


def test_ttl_store_insert_query_cycle(benchmark):
    store = TtlKeyStore(ttl=100.0)
    counter = iter(range(10**9))

    def cycle():
        i = next(counter)
        now = i * 0.01
        store.insert(f"k{i % 500}", i, now=now)
        store.query(f"k{(i * 7) % 500}", now=now)

    benchmark(cycle)


@pytest.fixture(scope="module")
def pgrid_512():
    population = PeerPopulation(512)
    dht = PGridDht(population, MessageLog(MessageMetrics()))
    dht.join_all(range(512))
    dht.responsible_for("warmup")  # force the rebuild outside the timer
    return dht


def test_pgrid_lookup(benchmark, pgrid_512):
    members = pgrid_512.online_members()
    counter = iter(range(10**9))

    def lookup():
        i = next(counter)
        pgrid_512.lookup(members[i % 512], f"key-{i % 1000}")

    benchmark(lookup)


def test_pgrid_rebuild_512(benchmark):
    population = PeerPopulation(512)

    def rebuild():
        dht = PGridDht(population, MessageLog(MessageMetrics()))
        dht.join_all(range(512))
        dht.responsible_for("x")

    benchmark.pedantic(rebuild, rounds=3, iterations=1)
