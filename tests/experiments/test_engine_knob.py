"""Tests for the engine-selection facade (event vs vectorized)."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments.execution import Execution
from repro.experiments.figures import (
    adaptivity_experiment,
    simulated_figure1,
    simulation_comparison,
)
from repro.experiments.scenario import (
    DEFAULT_ENGINE,
    ENGINES,
    fastsim_scenario,
    resolve_engine,
    simulation_scenario,
)


class TestResolveEngine:
    def test_known_engines(self):
        assert resolve_engine("event") == "event"
        assert resolve_engine("VECTORIZED ") == "vectorized"
        assert DEFAULT_ENGINE in ENGINES

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            resolve_engine("warp-drive")


class TestFastsimScenario:
    def test_scales_up_table1(self):
        params = fastsim_scenario()
        assert params.num_peers == 100_000
        assert params.n_keys == 200_000
        assert params.replication == 50  # structural ratios intact

    def test_rejects_downscaling(self):
        with pytest.raises(ParameterError):
            fastsim_scenario(scale=0.5)


class TestVectorizedExperiments:
    def test_simulation_comparison_vectorized(self):
        params = simulation_scenario(scale=0.02)
        fig = simulation_comparison(
            params=params, duration=60.0, execution=Execution("vectorized")
        )
        hit = dict(zip(fig.x_values, fig.series_of("hit rate")))
        assert hit["noIndex"] == 0.0
        assert hit["indexAll"] == 1.0
        assert 0.0 < hit["partialSelection"] <= 1.0
        simulated = dict(zip(fig.x_values, fig.series_of("simulated [msg/s]")))
        assert simulated["partialIdeal"] == min(simulated.values())

    def test_engines_agree_on_hit_rates_and_costs(self):
        # The same figure through both engines. Below CALIBRATION_LIMIT
        # the kernel's default cost policy calibrates off the event
        # substrate, so per-strategy msg/s must agree within 15% (single
        # seed, short run — the tighter seed-averaged 5% claim lives in
        # tests/properties/test_property_fastsim.py) and the strategy
        # ordering must match.
        params = simulation_scenario(scale=0.02)
        event = simulation_comparison(params=params, duration=60.0)
        fast = simulation_comparison(
            params=params, duration=60.0, execution=Execution("vectorized")
        )
        for name, event_hit, fast_hit in zip(
            event.x_values,
            event.series_of("hit rate"),
            fast.series_of("hit rate"),
        ):
            assert fast_hit == pytest.approx(event_hit, abs=0.05), name
        event_cost = dict(
            zip(event.x_values, event.series_of("simulated [msg/s]"))
        )
        fast_cost = dict(
            zip(fast.x_values, fast.series_of("simulated [msg/s]"))
        )
        for name in event_cost:
            assert fast_cost[name] == pytest.approx(
                event_cost[name], rel=0.15
            ), name
        assert min(event_cost, key=event_cost.get) == min(
            fast_cost, key=fast_cost.get
        )
        assert max(event_cost, key=event_cost.get) == max(
            fast_cost, key=fast_cost.get
        )

    def test_simulated_figure1_vectorized_shape(self):
        fig = simulated_figure1(
            params=simulation_scenario(scale=0.02),
            frequencies=(1 / 30, 1 / 600),
            duration=60.0,
            execution=Execution("vectorized"),
        )
        no_index = fig.series_of("noIndex")
        assert no_index[0] > no_index[1]  # cost falls with query frequency
        # noIndex is ~linear in the frequency (1/30 vs 1/600 = 20x);
        # indexAll is maintenance-dominated and essentially flat.
        assert no_index[0] / no_index[1] == pytest.approx(20.0, rel=0.5)
        index_all = fig.series_of("indexAll")
        assert max(index_all) / min(index_all) < 1.5
        for idx in range(2):
            assert fig.series_of("partialIdeal")[idx] <= min(
                fig.series_of("indexAll")[idx], no_index[idx]
            )

    def test_adaptivity_vectorized_recovers_after_shift(self):
        fig = adaptivity_experiment(
            params=simulation_scenario(scale=0.02),
            duration=400.0,
            shift_at=200.0,
            window=50.0,
            execution=Execution("vectorized"),
        )
        rates = dict(zip(fig.x_values, fig.series_of("hit rate")))
        assert rates["250"] < rates["200"]  # collapse after the shuffle
        assert rates["400"] > rates["250"]  # TTL index re-learns

    @pytest.mark.parametrize("window", [0.0, -5.0])
    def test_adaptivity_rejects_a_window_that_is_not_positive(self, window):
        # As the CLI and the tracking experiments do: such a window would
        # leave the figure without a single point.
        with pytest.raises(ParameterError, match="window must be > 0"):
            adaptivity_experiment(
                params=simulation_scenario(scale=0.02),
                duration=40.0,
                window=window,
                execution=Execution("vectorized"),
            )

    def test_churn_experiment_runs_vectorized(self):
        # PR 3 lifted the churn gate: the kernel charges the
        # availability-dependent per-op model and the figure runs on
        # either engine (agreement is pinned by the fastsim property
        # tests; this checks the figure plumbing end to end).
        from repro.experiments.figures import churn_experiment

        fig = churn_experiment(
            params=simulation_scenario(scale=0.02),
            duration=60.0,
            availabilities=(1.0, 0.75),
            execution=Execution("vectorized"),
        )
        success = fig.series_of("success rate")
        assert all(s > 0.9 for s in success)  # repl 50 bound ~ 1
        cost = fig.series_of("msg/s")
        assert cost[1] != cost[0]  # churn visibly changes the cost

    def test_staleness_experiment_runs_vectorized(self):
        from repro.experiments.figures import staleness_experiment

        fig = staleness_experiment(
            params=simulation_scenario(scale=0.02),
            duration=160.0,
            refresh_period=60.0,
            ttl_factors=(0.25, 4.0),
            execution=Execution("vectorized"),
        )
        stale = fig.series_of("stale hit fraction")
        assert stale[0] <= stale[-1]  # staleness grows with the TTL
        assert all(0.0 <= s <= 1.0 for s in stale)

    def test_unknown_engine_propagates(self):
        with pytest.raises(ParameterError):
            simulation_comparison(
                params=simulation_scenario(scale=0.02),
                duration=10.0,
                execution=Execution("bogus"),
            )


class TestLiftedGatesAtScale:
    """ISSUE 3 acceptance: the ex-gated experiments run at >= 10^5 peers."""

    def test_churn_runs_vectorized_at_hundred_thousand_peers(self):
        from repro.experiments.api import run

        result = run("churn", engine="vectorized", scale=5.0, duration=60.0)
        assert result.engine == "vectorized"
        assert result.scenario["num_peers"] == 100_000
        success = result.figure.series_of("success rate")
        cost = dict(
            zip(result.figure.x_values, result.figure.series_of("msg/s"))
        )
        assert all(s > 0.9 for s in success)
        # The structural churn model must show the physical effect the
        # old kernel missed: cost *rises* as availability falls (walk
        # lengthening / TTL exhaustion), instead of staying flat.
        assert cost["0.50"] > 1.5 * cost["1.00"]

    def test_staleness_runs_vectorized_at_hundred_thousand_peers(self):
        from repro.experiments.api import run

        result = run(
            "staleness", engine="vectorized", scale=5.0, duration=120.0
        )
        assert result.engine == "vectorized"
        assert result.scenario["num_peers"] == 100_000
        stale = result.figure.series_of("stale hit fraction")
        assert all(0.0 <= s <= 1.0 for s in stale)
        assert max(stale) > 0.0  # refreshes happened and were observed


class TestRunnerEngineFlag:
    def test_runner_accepts_engine_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_runner_accepts_replicates_flag(self, capsys):
        from repro.experiments.runner import main

        assert (
            main(
                [
                    "sim",
                    "--engine",
                    "vectorized",
                    "--duration",
                    "30",
                    "--scale",
                    "0.02",
                    "--replicates",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean of 2 seeds" in out
