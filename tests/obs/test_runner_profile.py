"""End-to-end --profile round trip through the experiment runner."""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.experiments.execution import Cell
from repro.experiments.export import load_result_json
from repro.experiments.runner import main
from repro.experiments.scenario import simulation_scenario
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy, strategy_setup


class TestProfileFlag:
    def test_profile_json_roundtrip(self, capsys):
        # table1 is analytical: fast, and proves --profile works even
        # without a simulation engine in the loop.
        assert main(["table1", "--format", "json", "--profile"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        telemetry = payload["telemetry"]
        assert telemetry["schema"] == obs.SNAPSHOT_SCHEMA
        assert "experiment.run" in telemetry["spans"]
        assert telemetry["spans"]["experiment.run"]["attrs"] == {
            "experiment": "table1",
            "engine": "none",
        }
        # the profile tree goes to stderr so stdout stays parseable
        assert "profile: table1" in captured.err
        assert "experiment.run" in captured.err
        # the exported result round-trips with its telemetry intact
        result = load_result_json(captured.out)
        assert result.telemetry == telemetry
        assert obs.profile_text(result.telemetry).startswith(
            "telemetry profile"
        )

    def test_profile_flag_does_not_leak_enabled_state(self, capsys):
        assert not obs.enabled()
        assert main(["table1", "--profile"]) == 0
        assert not obs.enabled()

    def test_without_profile_no_telemetry_block(self, capsys):
        assert main(["table1", "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload.get("telemetry") is None
        assert "profile:" not in captured.err

    def test_profile_respects_already_enabled_session(self, capsys):
        # A session that enabled telemetry itself keeps it on after a
        # --profile run (the runner only restores what it changed).
        obs.enable()
        assert main(["table1", "--profile"]) == 0
        assert obs.enabled()


class TestSweepPlanningIsNamed:
    def test_sweep_profile_names_planning_and_solves_each_scenario_once(
        self, capsys
    ):
        from repro.analysis import threshold

        # The caches are per process: start cold so the counts are the
        # grid's own (18 cells, 2 alphas x 3 fQry = 6 distinct scenarios).
        threshold._solve.cache_clear()
        assert main(
            ["sweep", "--scale", "0.02", "--duration", "30", "--no-store",
             "--format", "json", "--profile"]
        ) == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]
        plan = telemetry["spans"]["experiment.run/sweep.plan"]
        assert plan["count"] == 1
        assert plan["attrs"] == {"cells": 18}
        # The Eq. 14-15 planning and cost resolution run_many does
        # before its fan-out is named too, under the grid.
        spans = telemetry["spans"]
        grid = spans["experiment.run/sweep.grid"]
        resolve = spans["experiment.run/sweep.grid/parallel.resolve"]
        assert resolve["count"] == 1
        assert resolve["attrs"] == {"jobs": 18}
        assert resolve["seconds"] <= grid["seconds"]
        # The peak at the end of planning, beside the process's: which of
        # planning and the kernels set it.
        gauges = telemetry["gauges"]
        assert 0 < gauges["resolve.peak_rss_bytes"]
        assert gauges["resolve.peak_rss_bytes"] <= gauges["process.peak_rss_bytes"]
        counters = telemetry["counters"]
        assert counters["cache.threshold.miss"] == 6
        assert counters["cache.threshold.hit"] >= 12


class TestDrawIsNamed:
    def test_sweep_profile_builds_one_guide_per_distinct_distribution(
        self, capsys
    ):
        from repro.analysis import zipf

        # Per-process cache: start cold so the counts are the grid's own.
        # 18 cells over one key universe and two alphas, run as six
        # keyTtl columns that draw once each; only the two fQry = 1/30
        # columns draw enough per block to use a guide table, one each.
        # run_many builds those two before the first kernel (the misses)
        # and each column's draw finds its table built (the hits).
        zipf._guide_slot.cache_clear()
        zipf._last_cdf.clear()
        assert main(
            ["sweep", "--scale", "0.02", "--duration", "120", "--no-store",
             "--format", "json", "--profile"]
        ) == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]
        counters = telemetry["counters"]
        assert counters["cache.zipf_guide.miss"] == 2
        assert counters["cache.zipf_guide.hit"] == 2
        assert telemetry["gauges"]["cache.zipf_guide.size"] == 2
        # Every distribution of an alpha shares one CDF: the two builds
        # run last alpha first, the first alpha's columns find its CDF
        # in the memo and the second alpha's sum it once more.
        assert counters["zipf.cdf.builds"] == 3
        # The draw still nests under kernel.run; it counts draw blocks
        # (here one per keyTtl column), not cells.
        draw = next(
            span for path, span in telemetry["spans"].items()
            if path.endswith("kernel.run/draw")
        )
        assert draw["count"] == 6


class TestEventRunIsAccountedFor:
    ARGV = ["sim", "--engine", "event", "--scale", "0.01", "--duration", "30",
            "--no-store", "--format", "json"]

    def test_event_profile_attributes_the_run_to_named_phases(self, capsys):
        assert main([*self.ARGV, "--profile"]) == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]
        spans = telemetry["spans"]
        run = spans["experiment.run"]["seconds"]
        cells = spans["experiment.run/strategy.run"]
        assert cells["count"] == 4  # one per Fig. 1 strategy
        phases = {
            name: spans[f"experiment.run/strategy.run/{name}"]
            for name in ("strategy.build", "strategy.prepare",
                         "strategy.queries", "engine.run", "dht.maintenance")
        }
        # Sweeps run inside engine.run, so they are named, not added.
        named = sum(
            phase["seconds"]
            for name, phase in phases.items() if name != "dht.maintenance"
        )
        assert named / run >= 0.8
        assert named <= cells["seconds"] <= run
        # A dead substrate is freed by reference counting: no cell
        # collects the heap before it builds.
        assert not [path for path in spans if "collect" in path]
        assert phases["strategy.build"]["count"] == 4
        assert phases["strategy.prepare"]["count"] == 4
        # Content replicas and the index preload, timed apart (noIndex
        # and partialSelection preload nothing, but still report it).
        for half in ("strategy.publish", "strategy.preload"):
            prepare = "experiment.run/strategy.run/strategy.prepare"
            assert spans[f"{prepare}/{half}"]["count"] == 4
        assert phases["engine.run"]["count"] == 4 * 30
        # Aggregated, never one span per query: the entry count is the
        # number of queries the four strategies answered.
        assert phases["strategy.queries"]["count"] > 4 * 30
        # noIndex switches maintenance off before its first round.
        assert phases["dht.maintenance"]["count"] == 3 * 30
        # Without churn nobody joins, leaves or changes liveness after
        # the substrate is built: each of the three strategies that use
        # their DHT sorts its online members exactly once.
        counters = telemetry["counters"]
        assert counters["dht.views.rebuild"] == 3
        # The same goes for what lookups and floods derive per epoch
        # (owners and next hops; reach order and edges): dropped once per
        # DHT, once per replica group that floods — never per query.
        assert counters["dht.routes.rebuild"] == 3
        assert 1 <= counters["replica.plans.rebuild"] <= 30
        # The overlay's online rows: built once per substrate that walks,
        # and with no flip never patched.
        assert 1 <= counters["overlay.rows.rebuild"] <= 4
        assert "overlay.rows.patched" not in counters

    def test_benchmark_run_does_the_same_work(self, capsys):
        """The ``sim_event`` command's work, counted: the four strategies
        draw one placement (one miss, three memo hits) and walk, route
        and flood exactly as much as before the shared builders."""
        from repro.unstructured.replication import _placement

        _placement.cache_clear()  # the process may have drawn it before
        assert main([
            "sim", "--engine", "event", "--duration", "150", "--seed", "0",
            "--no-store", "--format", "json", "--profile",
        ]) == 0
        counters = json.loads(capsys.readouterr().out)["telemetry"]["counters"]
        assert counters["cache.placement.miss"] == 1
        assert counters["cache.placement.hit"] == 3
        work = {
            name: counters.get(name)
            for name in ("walk.hops", "walk.searches", "dht.routes.rebuild",
                         "dht.views.rebuild", "replica.plans.rebuild",
                         "overlay.rows.rebuild", "overlay.rows.patched",
                         "walk.failed", "walk.trapped")
        }
        assert work == {
            "walk.hops": 228_224, "walk.searches": 6_369,
            "dht.routes.rebuild": 3, "dht.views.rebuild": 3,
            "replica.plans.rebuild": 10, "overlay.rows.rebuild": 3,
            "overlay.rows.patched": None, "walk.failed": None,
            "walk.trapped": None,
        }

    def test_profiled_event_run_prints_the_same_figure(self, capsys):
        assert main(self.ARGV) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([*self.ARGV, "--profile"]) == 0
        profiled = json.loads(capsys.readouterr().out)
        assert profiled["figure"] == plain["figure"]

    def test_profile_footer_names_the_collector(self, capsys, monkeypatch):
        # Nothing in a cell collects, and with every module imported a
        # 30-round run may allocate too little for an automatic pass: one
        # young-generation pass per cell is made here, to be reported.
        run = SimulatedStrategy.run

        def collecting_run(self, duration, window=0.0):
            gc.collect(0)
            return run(self, duration, window=window)

        monkeypatch.setattr(SimulatedStrategy, "run", collecting_run)
        assert main([*self.ARGV, "--profile"]) == 0
        captured = capsys.readouterr()
        counters = json.loads(captured.out)["telemetry"]["counters"]
        assert counters["gc.collections.gen0"] >= 4
        assert counters["gc.pause_s"] > 0.0
        assert "gc.collections.gen0" in captured.err
        assert "gc.pause_s" in captured.err


class TestEventCellLeavesTheCollectorAsFound:
    """``Cell.run`` builds with automatic collection off and freezes the
    substrate for the query loop; none of it may outlive the cell."""

    @pytest.fixture(autouse=True)
    def collector_state_restored(self):
        was_enabled = gc.isenabled()
        yield
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()

    def cell(self, strategy="indexAll"):
        params = simulation_scenario(scale=0.01)
        return Cell(
            params=params, config=PdhtConfig.from_scenario(params),
            duration=5.0, strategy=strategy,
        )

    def test_after_a_run(self, capsys):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert main(TestEventRunIsAccountedFor.ARGV) == 0
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_substrate_is_built_unwatched_and_queried_frozen(self, monkeypatch):
        seen = {}
        build, run = SimulatedStrategy.__init__, SimulatedStrategy.run

        def watched_build(self, *args, **kwargs):
            seen["build"] = (gc.isenabled(), gc.get_freeze_count() > 0)
            build(self, *args, **kwargs)

        def watched_run(self, duration, window=0.0):
            seen["run"] = (gc.isenabled(), gc.get_freeze_count() > 0)
            return run(self, duration, window=window)

        monkeypatch.setattr(SimulatedStrategy, "__init__", watched_build)
        monkeypatch.setattr(SimulatedStrategy, "run", watched_run)
        assert self.cell().run().queries > 0
        assert seen == {"build": (False, False), "run": (True, True)}
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_after_a_cell_that_raises_mid_build(self, monkeypatch):
        # The overlay, the replicator and the walker exist by the time
        # PdhtNetwork rejects the DHT size.
        monkeypatch.setattr(
            "repro.pdht.strategies.strategy_setup",
            lambda params, *args: dataclasses.replace(
                strategy_setup(params, *args), num_members=params.num_peers + 1
            ),
        )
        with pytest.raises(ParameterError, match="num_active_peers"):
            self.cell().run()
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_after_a_cell_that_raises_mid_run(self):
        broken = dataclasses.replace(self.cell(), duration=0.0)
        with pytest.raises(ParameterError, match="duration"):
            broken.run()
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_a_caller_that_disabled_collection_keeps_it_disabled(
        self, monkeypatch
    ):
        seen = []
        run = SimulatedStrategy.run

        def watched_run(self, duration, window=0.0):
            seen.append(gc.isenabled())
            return run(self, duration, window=window)

        monkeypatch.setattr(SimulatedStrategy, "run", watched_run)
        gc.disable()
        assert self.cell("noIndex").run().queries > 0
        assert seen == [False]
        assert not gc.isenabled() and gc.get_freeze_count() == 0
