"""Progress/heartbeat events and the stderr renderer."""

from __future__ import annotations

import io
from dataclasses import replace

from repro import obs
from repro.obs import events
from repro.fastsim.kernel import HEARTBEAT_ROUNDS


class TestProgressApi:
    def test_noop_without_sink(self):
        obs.progress("sweep.cells", 1, total=3)  # must not raise
        assert obs.heartbeat("kernel.rounds", total=10) is None

    def test_progress_event_fields(self):
        with events.recorded() as ring:
            obs.progress("sweep.cells", 2, total=6, cell="alpha=0.9")
        (event,) = ring.events()
        assert event["type"] == "progress"
        assert event["name"] == "sweep.cells"
        assert event["done"] == 2
        assert event["total"] == 6
        assert event["cell"] == "alpha=0.9"

    def test_progress_never_touches_collector(self):
        obs.enable()
        with events.recorded():
            obs.progress("sweep.cells", 1, total=3)
        snapshot = obs.collector().snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {}

    def test_heartbeat_emits_initial_and_beats(self):
        with events.recorded() as ring:
            beat = obs.heartbeat("kernel.rounds", total=512)
            assert beat is not None
            beat(256)
            beat(512)
        dones = [e["done"] for e in ring.events()]
        assert dones == [0, 256, 512]
        assert all(e["total"] == 512 for e in ring.events())

    def test_kernel_heartbeats_during_run(self):
        from repro.experiments.scenario import simulation_scenario
        from repro.fastsim.kernel import run_fastsim

        rounds = 2 * HEARTBEAT_ROUNDS + 10
        with events.recorded() as ring:
            run_fastsim(
                simulation_scenario(scale=0.02),
                duration=float(rounds),
                seed=0,
            )
        beats = [
            e for e in ring.events() if e.get("name") == "kernel.rounds"
        ]
        assert [b["done"] for b in beats] == [
            0,
            HEARTBEAT_ROUNDS,
            2 * HEARTBEAT_ROUNDS,
            rounds,
        ]
        assert all(b["total"] == rounds for b in beats)

    def test_kernel_heartbeats_do_not_change_results(self):
        from repro.experiments.scenario import simulation_scenario
        from repro.fastsim.kernel import run_fastsim

        scenario = simulation_scenario(scale=0.02)
        plain = run_fastsim(scenario, duration=600.0, seed=0)
        with events.recorded():
            recorded = run_fastsim(scenario, duration=600.0, seed=0)
        # Every field but the wall clock.
        assert replace(plain, elapsed_seconds=0.0) == replace(
            recorded, elapsed_seconds=0.0
        )


def _progress_event(name, done, total, t, **extra):
    return {
        "type": "progress",
        "t": t,
        "pid": 1,
        "name": name,
        "done": done,
        "total": total,
        **extra,
    }


class TestProgressRenderer:
    def test_renders_name_pct_and_eta(self):
        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream, min_interval=0.0)
        renderer.emit(_progress_event("sweep.cells", 0, 10, t=100.0))
        renderer.emit(_progress_event("sweep.cells", 5, 10, t=105.0))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "sweep.cells: 0/10 (0%)"
        # 5 cells in 5s -> 5 remaining at 1 cell/s -> eta 5s.
        assert lines[1] == "sweep.cells: 5/10 (50%) eta 5s"

    def test_completion_reports_elapsed(self):
        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream, min_interval=0.0)
        renderer.emit(_progress_event("sweep.cells", 0, 4, t=10.0))
        renderer.emit(_progress_event("sweep.cells", 4, 4, t=12.5))
        assert (
            stream.getvalue().splitlines()[-1]
            == "sweep.cells: 4/4 (100%) in 2.5s"
        )

    def test_rate_limiting_keeps_completion(self):
        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream, min_interval=1.0)
        for done, t in ((0, 0.0), (1, 0.1), (2, 0.2), (4, 0.3)):
            renderer.emit(_progress_event("sweep.cells", done, 4, t=t))
        lines = stream.getvalue().splitlines()
        # Intermediate ticks inside the interval are dropped; the
        # completion line always renders.
        assert lines == [
            "sweep.cells: 0/4 (0%)",
            "sweep.cells: 4/4 (100%) in 0.3s",
        ]

    def test_remote_and_non_progress_events_skipped(self):
        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream, min_interval=0.0)
        renderer.emit(
            _progress_event("parallel.jobs", 1, 2, t=1.0, remote=True)
        )
        renderer.emit({"type": "counter", "t": 1.0, "pid": 1, "name": "a", "n": 1})
        assert stream.getvalue() == ""

    def test_unknown_total_renders_bare_count(self):
        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream, min_interval=0.0)
        renderer.emit(_progress_event("kernel.rounds", 7, None, t=1.0))
        assert stream.getvalue() == "kernel.rounds: 7\n"
