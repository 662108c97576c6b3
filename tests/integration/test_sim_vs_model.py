"""Integration: simulated strategies vs the analytical model.

The claim (paper Section 5.2): simulated message rates reproduce the
*ordering* and rough factors of the analytical model at the same scale —
not the absolute numbers, since the model idealises walk granularity,
routing-table sizes, and replica-flood shapes.
"""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.strategies import STRATEGY_NAMES, evaluate_strategies
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def params():
    # Busy scenario so the ordering (noIndex worst, partial best) is sharp.
    return ScenarioParameters(
        num_peers=400,
        n_keys=800,
        storage_per_peer=100,
        replication=50,
        query_freq=1.0 / 10.0,
    )


@pytest.fixture(scope="module")
def reports(params):
    config = PdhtConfig.from_scenario(params, walkers=8)
    out = {}
    for name in STRATEGY_NAMES:
        strategy = SimulatedStrategy(
            params, config=config, strategy=name, seed=11
        )
        out[name] = strategy.run(180.0)
    return out


class TestOrdering:
    def test_partial_ideal_is_cheapest(self, reports):
        ideal = reports["partialIdeal"].messages_per_second
        assert ideal < reports["indexAll"].messages_per_second
        assert ideal < reports["noIndex"].messages_per_second
        assert ideal < reports["partialSelection"].messages_per_second

    def test_sim_ordering_matches_model_ordering(self, params, reports):
        # Whatever the model says about who beats whom at *this* scale
        # (e.g. selection > noIndex here, because scaling peers down while
        # keeping repl=50 makes walks cheap and replica floods expensive),
        # the simulation must agree pairwise.
        from repro.analysis.selection_model import SelectionModel

        analytic = evaluate_strategies(params)
        ttl = PdhtConfig.from_scenario(params).key_ttl
        model = {
            "noIndex": analytic.no_index,
            "indexAll": analytic.index_all,
            "partialIdeal": analytic.partial,
            "partialSelection": SelectionModel(params, key_ttl=ttl).total_cost(),
        }
        names = list(model)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                # Only check decisive gaps (>2x in the model); closer pairs
                # are within simulation noise by design.
                if model[a] > 2 * model[b]:
                    assert (
                        reports[a].messages_per_second
                        > reports[b].messages_per_second
                    ), f"model says {a} >> {b}, simulation disagrees"
                elif model[b] > 2 * model[a]:
                    assert (
                        reports[b].messages_per_second
                        > reports[a].messages_per_second
                    ), f"model says {b} >> {a}, simulation disagrees"


class TestFactorsVsModel:
    def test_each_strategy_within_factor_of_model(self, params, reports):
        from repro.analysis.selection_model import SelectionModel

        analytic = evaluate_strategies(params)
        config_ttl = PdhtConfig.from_scenario(params).key_ttl
        model = {
            "noIndex": analytic.no_index,
            "indexAll": analytic.index_all,
            "partialIdeal": analytic.partial,
            "partialSelection": SelectionModel(
                params, key_ttl=config_ttl
            ).total_cost(),
        }
        for name, report in reports.items():
            ratio = report.messages_per_second / model[name]
            assert 0.2 < ratio < 5.0, f"{name}: sim/model = {ratio:.2f}"


class TestHitRates:
    def test_hit_rates_match_model(self, params, reports):
        from repro.analysis.threshold import solve_threshold

        assert reports["noIndex"].hit_rate == 0.0
        assert reports["indexAll"].hit_rate == 1.0
        expected = solve_threshold(params).p_indexed
        assert reports["partialIdeal"].hit_rate == pytest.approx(expected, abs=0.1)
        # Selection warms up from empty, so it trails the ideal hit rate
        # but must reach the same order.
        assert reports["partialSelection"].hit_rate > expected - 0.3

    def test_everything_answered(self, reports):
        for name, report in reports.items():
            assert report.success_rate == pytest.approx(1.0), name
