"""Tests for the first-class Experiment API (specs, registry, results,
capability gating, the rebuilt CLI, and the deprecated dict shim)."""

from __future__ import annotations

import json

import pytest

from repro.errors import CapabilityError, ParameterError
from repro.experiments.api import (
    ANALYTICAL,
    SIMULATED,
    ExperimentParams,
    ExperimentSpec,
    REGISTRY,
    experiment_names,
    get_spec,
    register,
    run,
)


class TestSpecsAndRegistry:
    def test_every_spec_is_well_formed(self):
        for name in experiment_names():
            spec = get_spec(name)
            assert spec.name == name
            assert spec.title
            assert spec.kind in (ANALYTICAL, SIMULATED)
            if spec.kind == ANALYTICAL:
                assert spec.engines == ()
                assert spec.capability_label() == "-"
            else:
                assert spec.engines
                assert "engine" in spec.accepts
                assert spec.default_engine == spec.engines[0]

    def test_gated_specs_carry_reasons(self):
        for name, engines in (
            ("sweep", ("vectorized",)),
            ("sweep-optimal", ("vectorized",)),
        ):
            spec = get_spec(name)
            assert spec.engines == engines
            assert spec.gate_reason

    def test_no_experiment_is_event_only(self):
        # PR 3 lifted the last engine gates: every simulated experiment
        # either supports both engines or is vectorized-only (paper-scale
        # sweeps); nothing is locked to the event engine any more.
        for spec in REGISTRY.values():
            if spec.kind == SIMULATED:
                assert spec.engines != ("event",), spec.name

    def test_churn_and_staleness_support_both_engines(self):
        for name in ("churn", "staleness"):
            spec = get_spec(name)
            assert spec.engines == ("event", "vectorized")
            assert not spec.gate_reason
            assert "vectorized" in spec.engines

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown experiment"):
            get_spec("fig99")

    def test_duplicate_registration_rejected(self):
        spec = get_spec("fig1")
        with pytest.raises(ParameterError, match="already registered"):
            register(spec)

    def test_registry_view_is_read_only_mapping(self):
        assert set(REGISTRY) == set(experiment_names())
        assert REGISTRY["sweep"].kind == SIMULATED
        with pytest.raises(TypeError):
            REGISTRY["x"] = None  # type: ignore[index]

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="kind"):
            ExperimentSpec("x", "t", "magic", builder=lambda ctx: None)
        with pytest.raises(ParameterError, match="engine capabilities"):
            ExperimentSpec(
                "x", "t", ANALYTICAL, builder=lambda ctx: None,
                engines=("event",),
            )
        with pytest.raises(ParameterError, match="at least one engine"):
            ExperimentSpec("x", "t", SIMULATED, builder=lambda ctx: None)
        with pytest.raises(ParameterError, match="unknown engines"):
            ExperimentSpec(
                "x", "t", SIMULATED, builder=lambda ctx: None,
                engines=("warp-drive",),
            )
        # A builder parameter nothing binds, without a default.
        with pytest.raises(ParameterError, match="unknown parameters"):
            ExperimentSpec(
                "x", "t", ANALYTICAL, builder=lambda frobnication: None
            )

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            ExperimentParams(duration=-1.0)
        with pytest.raises(ParameterError):
            ExperimentParams(scale=0.0)
        with pytest.raises(ParameterError):
            ExperimentParams(seed=1.5)  # type: ignore[arg-type]
        for window in (0.0, -1.0):
            with pytest.raises(ParameterError, match="window must be > 0"):
                ExperimentParams(window=window)
        # A zero window would leave the figure empty on both engines.
        for engine in ("event", "vectorized"):
            with pytest.raises(ParameterError, match="window must be > 0"):
                run("adaptivity", engine=engine, duration=120.0, window=0.0,
                    store="none")
        for name in ("duration", "scale", "shift_at", "window"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ParameterError, match=f"{name} must be finite"):
                    ExperimentParams(**{name: value})
        for name in ("seed", "replicates", "jobs"):
            for value in (True, False):
                with pytest.raises(ParameterError, match=f"{name} must be an integer"):
                    ExperimentParams(**{name: value})

    @pytest.mark.parametrize("name", ["duration", "scale", "shift_at", "window"])
    def test_a_float_field_is_a_number_and_not_a_boolean(self, name):
        for value in (True, False, "1"):
            with pytest.raises(ParameterError, match=f"{name} must be a number"):
                ExperimentParams(**{name: value})

    @pytest.mark.parametrize(
        "experiment, name",
        [("sim", "duration"), ("sim", "scale"), ("adaptivity", "window")],
    )
    def test_a_boolean_float_field_fails_the_run(self, experiment, name):
        # Taken as numbers, they would run one round, scale 1.0 and a
        # 1-round window.
        settings = {"scale": 0.02, "duration": 120.0, name: True}
        with pytest.raises(ParameterError, match=f"{name} must be a number"):
            run(experiment, engine="vectorized", store="none", **settings)


class TestCapabilityGating:
    def test_sweep_rejects_event_engine(self):
        with pytest.raises(CapabilityError, match="vectorized"):
            run("sweep", engine="event", duration=10.0)
        with pytest.raises(CapabilityError, match="vectorized"):
            run("sweep-optimal", engine="event", duration=10.0)

    def test_capability_error_is_a_parameter_error(self):
        # Old callers catching ParameterError keep working.
        assert issubclass(CapabilityError, ParameterError)

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown engine"):
            run("sim", engine="warp-drive", duration=10.0)


class TestRun:
    def test_unaccepted_override_rejected(self):
        with pytest.raises(ParameterError, match="does not take"):
            run("fig1", duration=10.0)

    def test_unknown_override_rejected(self):
        with pytest.raises(ParameterError, match="unknown experiment param"):
            run("sim", frobnicate=1)

    def test_analytical_result_provenance(self):
        import repro

        result = run("fig1")
        assert result.kind == ANALYTICAL
        assert result.engine is None
        assert result.scenario["num_peers"] == 20_000
        assert result.version == repro.__version__
        assert result.wall_clock_seconds >= 0.0
        assert set(result.figure.series) == {"indexAll", "noIndex", "partial"}
        provenance = result.provenance()
        assert provenance["experiment"] == "fig1"
        assert provenance["engine"] is None

    def test_simulated_result_provenance_and_overrides(self):
        result = run(
            "sim", engine="vectorized", duration=30.0, seed=3, scale=0.02
        )
        assert result.engine == "vectorized"
        assert result.seed == 3
        assert result.parameters["duration"] == 30.0
        assert result.parameters["scale"] == 0.02
        assert "engine" not in result.parameters  # has its own field
        assert result.scenario["num_peers"] == 400  # Table 1 x 0.02
        assert result.figure.series_of("hit rate")

    def test_default_engine_is_specs_first_capability(self):
        result = run("sweep", duration=10.0, scale=0.02)
        assert result.engine == "vectorized"

    def test_adaptivity_derives_shift_and_window_from_duration(self):
        result = run(
            "adaptivity",
            engine="vectorized",
            duration=400.0,
            scale=0.02,
            window=50.0,
        )
        # shift_at defaults to duration/2: the title marks t=200.
        assert "t=200" in result.figure.name
        rates = dict(
            zip(result.figure.x_values, result.figure.series_of("hit rate"))
        )
        assert rates["250"] < rates["200"]  # collapse right after the shift

    def test_table1_runs_through_the_api(self):
        result = run("table1")
        assert "Table 1" in result.render()
        assert result.figure.x_values[0] == "numPeers"
        assert result.figure.series_of("value")[0] == 20_000.0


class TestSweepGrid:
    def test_grid_axes_validation(self):
        from repro.experiments.sweeps import GridAxes

        with pytest.raises(ParameterError, match="non-empty"):
            GridAxes(ttl_factors=())
        with pytest.raises(ParameterError, match="> 0"):
            GridAxes(alphas=(1.2, -0.5))
        axes = GridAxes()
        assert axes.size == 18
        assert len(list(axes.points())) == 18

    def test_small_grid_shapes(self):
        from repro.experiments.scenario import simulation_scenario
        from repro.experiments.sweeps import GridAxes, sweep_grid

        axes = GridAxes(
            ttl_factors=(0.5, 2.0), alphas=(1.2,), query_freqs=(1 / 30,)
        )
        fig = sweep_grid(
            axes, scenario=simulation_scenario(scale=0.02), duration=30.0
        )
        assert len(fig.x_values) == 2
        assert set(fig.series) == {
            "hit rate", "msg/s", "model msg/s", "keyTtl [s]",
        }
        for rate in fig.series_of("hit rate"):
            assert 0.0 <= rate <= 1.0
        ttls = fig.series_of("keyTtl [s]")
        assert ttls[1] == pytest.approx(4.0 * ttls[0])  # 2.0x vs 0.5x

    def test_sweep_experiment_scales_with_scale_override(self):
        result = run("sweep", duration=10.0, scale=0.02)
        assert result.scenario["num_peers"] == 400
        assert len(result.figure.x_values) == 18


class TestCli:
    def _main(self, argv):
        from repro.experiments.runner import main

        return main(argv)

    def test_list_enumerates_registry_with_capabilities(self, capsys):
        assert self._main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out
        assert "event*,vectorized" in out
        assert "vectorized*" in out
        assert "gated:" in out

    def test_no_experiments_errors(self):
        with pytest.raises(SystemExit):
            self._main([])

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            self._main(["fig99"])
        # A typo is rejected even when 'all' rides along (the old
        # choices= behaviour), not silently discarded.
        with pytest.raises(SystemExit):
            self._main(["all", "fig99"])

    def test_the_store_path_is_no_part_of_the_json(self, capsys, tmp_path):
        """Two runs whose ``--store`` paths differ in length print the
        same JSON but for the wall clock: where a figure is kept is not
        what it is (``source`` says whether it came from a store)."""
        payloads = []
        for store in (tmp_path / "a.db", tmp_path / "longer-dir" / "b.db"):
            store.parent.mkdir(exist_ok=True)
            argv = ["sim", "--engine", "vectorized", "--scale", "0.02",
                    "--duration", "20", "--store", str(store),
                    "--format", "json"]
            assert self._main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert "store" not in payload["provenance"]["parameters"]
            payload["provenance"].pop("wall_clock_seconds")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_gated_engine_request_exits_nonzero_with_reason(self, capsys):
        assert self._main(["sweep", "--engine", "event"]) == 2
        err = capsys.readouterr().err
        assert "vectorized" in err

    @pytest.mark.parametrize(
        "flags",
        [["--duration", "-5"], ["--duration", "nan"], ["--duration", "inf"],
         ["--scale", "nan"], ["--duration", "20.5"],
         ["--engine", "event", "--duration", "20.5"]],
    )
    def test_bad_parameter_exits_nonzero_in_one_line(self, capsys, flags):
        argv = ["sim", "--engine", "vectorized", "--scale", "0.02", *flags]
        assert self._main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sim: ") and err.count("\n") == 1

    def test_missing_trace_file_exits_nonzero_in_one_line(self, capsys):
        argv = ["adaptivity-tracking", "--scale", "0.02", "--duration", "60",
                "--workload", "trace:/nonexistent/trace.json"]
        assert self._main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: adaptivity-tracking: ")
        assert "/nonexistent/trace.json" in err and err.count("\n") == 1

    def test_engine_flag_ignored_for_analytical(self, capsys):
        assert self._main(["table1", "--engine", "vectorized"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_csv_format(self, capsys):
        assert self._main(["fig1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "queryFreq,indexAll,noIndex,partial"

    def test_json_format_carries_provenance(self, capsys):
        assert self._main(["fig1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig1"
        assert payload["provenance"]["scenario"]["num_peers"] == 20_000

    def test_output_dir_writes_files(self, capsys, tmp_path):
        assert (
            self._main(
                [
                    "fig1",
                    "fig2",
                    "--format",
                    "json",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        for name in ("fig1", "fig2"):
            path = tmp_path / f"{name}.json"
            assert path.exists()
            assert json.loads(path.read_text())["experiment"] == name
        assert "wrote" in capsys.readouterr().out

    def test_sweep_json_output_acceptance(self, capsys, tmp_path):
        # The ISSUE acceptance command (scaled down for test speed):
        # runner sweep --engine vectorized --format json --output out/
        assert (
            self._main(
                [
                    "sweep",
                    "--engine",
                    "vectorized",
                    "--scale",
                    "0.02",
                    "--duration",
                    "20",
                    "--format",
                    "json",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["provenance"]["engine"] == "vectorized"
        assert payload["provenance"]["version"]
        assert len(payload["figure"]["x_values"]) == 18

    def test_simulated_flags_flow_through(self, capsys):
        assert (
            self._main(
                [
                    "sim",
                    "--engine",
                    "vectorized",
                    "--duration",
                    "30",
                    "--scale",
                    "0.02",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sim [vectorized]" in out
        assert "400 peers" in out


class TestShimRemoved:
    def test_runner_no_longer_exports_experiments_dict(self):
        # The deprecated pre-registry shim is gone (ROADMAP follow-up);
        # the registry is the only experiment surface.
        import repro.experiments.runner as runner

        assert not hasattr(runner, "EXPERIMENTS")
        assert runner.__all__ == ["main"]


class TestReplicates:
    def test_replicated_run_carries_per_seed_values_and_ci(self):
        result = run(
            "sim",
            engine="vectorized",
            duration=30.0,
            scale=0.02,
            seed=5,
            replicates=3,
        )
        assert result.replication is not None
        assert result.replication["seeds"] == [5, 6, 7]
        assert result.replication["confidence"] == 0.95
        per_seed = result.replication["per_seed"]
        assert set(per_seed) >= {"hit rate", "simulated [msg/s]"}
        assert len(per_seed["hit rate"]) == 3
        # The figure holds seed means plus ci95 half-width series.
        assert "hit rate" in result.figure.series
        assert "hit rate ci95" in result.figure.series
        means = result.figure.series_of("hit rate")
        for i, mean in enumerate(means):
            samples = [per_seed["hit rate"][s][i] for s in range(3)]
            assert mean == pytest.approx(sum(samples) / 3)
        assert all(hw >= 0 for hw in result.figure.series_of("hit rate ci95"))
        assert result.parameters["replicates"] == 3

    def test_single_replicate_behaves_like_plain_run(self):
        result = run(
            "sim", engine="vectorized", duration=30.0, scale=0.02,
            replicates=1,
        )
        assert result.replication is None
        assert "hit rate ci95" not in result.figure.series

    def test_invalid_replicates_rejected(self):
        with pytest.raises(ParameterError, match="replicates"):
            run("sim", engine="vectorized", duration=30.0, replicates=0)

    def test_replicated_result_round_trips_through_json(self, tmp_path):
        from repro.experiments.export import load_result_json

        result = run(
            "sim",
            engine="vectorized",
            duration=30.0,
            scale=0.02,
            replicates=2,
        )
        restored = load_result_json(result.to_json())
        assert restored.replication == result.replication
        assert restored.figure.series == result.figure.series


class TestJobsParameter:
    """ISSUE 4: the jobs knob — validation, provenance, and parity."""

    def test_jobs_validation(self):
        with pytest.raises(ParameterError):
            ExperimentParams(jobs=-1)
        with pytest.raises(ParameterError):
            ExperimentParams(jobs=2.5)  # type: ignore[arg-type]
        assert ExperimentParams(jobs=0).jobs == 0  # 0 = cpu count

    def test_simulated_specs_accept_jobs(self):
        from repro.experiments.api import iter_specs

        for spec in iter_specs():
            if spec.kind == "simulated":
                assert "jobs" in spec.accepts, spec.name

    def test_analytical_specs_reject_jobs(self):
        with pytest.raises(ParameterError, match="does not take"):
            run("fig1", jobs=2)

    def test_jobs_recorded_in_provenance(self):
        result = run(
            "sim", engine="vectorized", duration=20.0, scale=0.02, jobs=2
        )
        assert result.parameters["jobs"] == 2

    def test_parallel_replicates_match_sequential(self):
        sequential = run(
            "sim", engine="vectorized", duration=20.0, scale=0.02,
            replicates=2,
        )
        parallel = run(
            "sim", engine="vectorized", duration=20.0, scale=0.02,
            replicates=2, jobs=2,
        )
        assert parallel.figure.series == sequential.figure.series
        assert parallel.replication == sequential.replication

    def test_cli_jobs_flag(self, capsys):
        from repro.experiments.runner import main

        assert main([
            "sim", "--engine", "vectorized", "--duration", "20",
            "--scale", "0.02", "--jobs", "2",
        ]) == 0
        assert "sim" in capsys.readouterr().out

    def test_cli_jobs_flag_filtered_for_analytical(self, capsys):
        from repro.experiments.runner import main

        # Analytical experiments don't accept jobs; the flag is filtered
        # like --engine rather than failing the run.
        assert main(["table1", "--jobs", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out
