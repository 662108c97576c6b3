"""Tests for the extension experiments (optimal gap, churn, simulation)."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments.execution import Execution
from repro.experiments.figures import (
    churn_experiment,
    heuristic_vs_optimal,
    simulation_comparison,
)
from repro.experiments.scenario import simulation_scenario

pytestmark = pytest.mark.slow


class TestHeuristicVsOptimal:
    @pytest.fixture(scope="class")
    def fig(self):
        # Three frequencies keep this fast; ``runner optimal`` is the sweep.
        return heuristic_vs_optimal(frequencies=(1 / 30, 1 / 600, 1 / 7200))

    def test_maxrank_rule_near_optimal(self, fig):
        assert all(-1e-9 <= g < 0.02 for g in fig.series_of("maxRank gap"))

    def test_ttl_rule_gap_grows_with_period(self, fig):
        gaps = fig.series_of("keyTtl gap")
        assert gaps[-1] > gaps[0]
        # Eq. 17 is nearly flat in the TTL at the busiest rate, so the
        # golden-section optimum may sit sub-percent above the heuristic.
        assert all(-0.01 <= g < 0.5 for g in gaps)

    def test_render_mentions_gap_definition(self, fig):
        assert "heuristic cost / optimal cost" in fig.render()


class TestChurnExperiment:
    def test_success_tracks_replication_bound(self):
        params = simulation_scenario(scale=0.02)
        fig = churn_experiment(
            params=params, duration=90.0, availabilities=(1.0, 0.6)
        )
        success = fig.series_of("success rate")
        # repl=50 at availability >= 0.6: the bound is ~1 - 0.4^50 ~ 1.
        assert all(s > 0.95 for s in success)
        # Hit rate degrades gracefully; message rate grows as the
        # overlay thins.
        hits = fig.series_of("hit rate")
        cost = fig.series_of("msg/s")
        assert hits[-1] > hits[0] - 0.2
        assert cost[-1] > cost[0]

    def test_invalid_availability_rejected(self):
        with pytest.raises(ParameterError):
            churn_experiment(
                params=simulation_scenario(scale=0.02),
                duration=30.0,
                availabilities=(0.0,),
            )

    @pytest.mark.parametrize("availability", [True, "0.75"], ids=["bool", "str"])
    def test_non_numeric_availability_rejected(self, availability):
        # True used to run a column labelled 1.00 without churn, and a
        # string escaped as a raw TypeError.
        from repro.fastsim.compare import churn_config_for_availability

        with pytest.raises(ParameterError, match="availability"):
            churn_config_for_availability(availability)
        with pytest.raises(ParameterError, match="availability"):
            churn_experiment(
                params=simulation_scenario(scale=0.02),
                duration=30.0,
                availabilities=(availability,),
                execution=Execution("event"),
            )


class TestSimulationComparison:
    def test_hit_rates_sane(self):
        fig = simulation_comparison(
            params=simulation_scenario(scale=0.02), duration=60.0
        )
        hit = dict(zip(fig.x_values, fig.series_of("hit rate")))
        assert hit["noIndex"] == 0.0
        assert hit["indexAll"] == 1.0
        assert 0.0 < hit["partialSelection"] <= 1.0


class TestStalenessExperiment:
    def test_staleness_monotone_in_ttl(self):
        from repro.experiments.figures import staleness_experiment

        fig = staleness_experiment(
            params=simulation_scenario(scale=0.02),
            duration=200.0,
            refresh_period=80.0,
            ttl_factors=(0.25, 4.0),
        )
        stale = fig.series_of("stale hit fraction")
        assert stale[0] <= stale[-1]
        assert all(0.0 <= s <= 1.0 for s in stale)
        hits = fig.series_of("hit rate")
        assert hits[0] < hits[-1]

    def test_invalid_parameters(self):
        from repro.experiments.figures import staleness_experiment

        with pytest.raises(ParameterError):
            staleness_experiment(duration=0.0)
        with pytest.raises(ParameterError):
            staleness_experiment(ttl_factors=(0.0,))

    @pytest.mark.parametrize("factor", [True, "4"], ids=["bool", "str"])
    def test_non_numeric_ttl_factor_rejected(self, factor):
        # True used to run silently as a 1x column.
        from repro.experiments.figures import staleness_experiment

        with pytest.raises(ParameterError, match="ttl_factors"):
            staleness_experiment(
                params=simulation_scenario(scale=0.02),
                duration=30.0,
                ttl_factors=(factor,),
                execution=Execution("event"),
            )


class TestRunnerExtensions:
    def test_registry_knows_new_experiments(self):
        from repro.experiments.api import experiment_names

        assert {"optimal", "churn", "staleness", "sweep", "sweep-optimal"} <= set(
            experiment_names()
        )


class TestStalenessRefreshPeriod:
    def test_faster_refresh_is_staler(self):
        from repro.experiments.figures import staleness_experiment

        def stale(refresh_period):
            fig = staleness_experiment(
                params=simulation_scenario(scale=0.02),
                duration=160.0,
                refresh_period=refresh_period,
                ttl_factors=(1.0,),
                execution=Execution("vectorized"),
            )
            assert f"every {refresh_period:.0f}s" in fig.name
            return fig.series_of("stale hit fraction")[0]

        # More frequent refreshes make more of the index stale.
        assert stale(40.0) >= stale(160.0)
