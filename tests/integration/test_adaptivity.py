"""Integration: the Section 5.2 adaptivity claims, in simulation.

'Our scheme is able to automatically adjust the index to changing query
frequencies and distributions.'
"""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy, key_name
from repro.sim.rng import RandomStreams
from repro.workloads import FlashCrowd, RankSwap

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def params():
    return ScenarioParameters(
        num_peers=300,
        n_keys=600,
        storage_per_peer=100,
        replication=30,
        query_freq=1.0 / 10.0,
    )


class TestDistributionShift:
    def test_hit_rate_dips_then_recovers(self, params):
        config = PdhtConfig.from_scenario(params, walkers=8)
        shift_at = 150.0
        workload = RankSwap(shift_at).build(
            ZipfDistribution(params.n_keys, params.alpha),
            RandomStreams(3).get("shifted"),
        )
        strategy = SimulatedStrategy(
            params, config=config, seed=3, workload=workload
        )
        report = strategy.run(300.0, window=50.0)
        rates = dict(report.hit_rate_series)
        before = rates[150.0]
        just_after = rates[200.0]
        recovered = rates[300.0]
        assert before > 0.5, "index never warmed up"
        assert just_after < before, "shift did not dent the hit rate"
        assert recovered > just_after, "index did not re-learn the new hot set"

    def test_index_size_stays_bounded_after_shift(self, params):
        # The old hot keys must eventually time out rather than accumulate.
        config = PdhtConfig.from_scenario(params, walkers=8)
        workload = RankSwap(100.0).build(
            ZipfDistribution(params.n_keys, params.alpha),
            RandomStreams(5).get("shifted2"),
        )
        strategy = SimulatedStrategy(
            params, config=config, seed=5, workload=workload
        )
        report = strategy.run(250.0, window=50.0)
        sizes = [s for _, s in report.index_size_series]
        assert max(sizes) < params.n_keys * 0.9


class TestFlashCrowd:
    def test_promoted_key_gets_indexed_and_stays(self, params):
        config = PdhtConfig.from_scenario(params, walkers=8)
        crowd_at = 60.0
        workload = FlashCrowd(crowd_at, cold_rank=params.n_keys).build(
            ZipfDistribution(params.n_keys, params.alpha),
            RandomStreams(7).get("crowd"),
        )
        strategy = SimulatedStrategy(
            params, config=config, seed=7, workload=workload
        )
        promoted_key = key_name(workload.key_for_rank(params.n_keys))

        hits_after_crowd = 0
        queries_after_crowd = 0
        net = strategy.network
        for _ in range(180):
            net.advance(1.0)
            for _, key_index in workload.draw(net.simulation.now, 5):
                key = key_name(key_index)
                outcome = net.query(net.random_online_peer(), key)
                if key == promoted_key and net.simulation.now > crowd_at + 20:
                    queries_after_crowd += 1
                    hits_after_crowd += int(outcome.via_index)

        assert queries_after_crowd > 50, "flash crowd never materialised"
        hit_rate = hits_after_crowd / queries_after_crowd
        assert hit_rate > 0.9, f"promoted key hit rate only {hit_rate:.0%}"
