"""The Chrome-trace exporter and the runner's live flags."""

from __future__ import annotations

import collections
import json

import pytest

from repro import obs
from repro.obs import events
from repro.obs.export import chrome_trace, replay


def _span_end(path, t, seconds, pid=1, attrs=None):
    return {
        "type": "span_end",
        "t": t,
        "pid": pid,
        "path": path,
        "seconds": seconds,
        "attrs": attrs or {},
    }


class TestChromeTrace:
    def test_empty_stream(self):
        trace = chrome_trace([])
        assert trace == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_slice_timing_math(self):
        trace = chrome_trace(
            [
                _span_end("sweep.grid", t=10.0, seconds=2.0),
                _span_end("sweep.grid/kernel.run", t=9.5, seconds=1.0),
            ]
        )
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        outer, inner = slices
        # t0 is the earliest stamp (8.0 = 10.0 - 2.0? no: min event t is
        # 9.5); ts is the slice *start* rebased to t0, in microseconds.
        assert outer["ts"] == pytest.approx((10.0 - 2.0 - 9.5) * 1e6)
        assert outer["dur"] == pytest.approx(2.0 * 1e6)
        assert inner["ts"] == pytest.approx((9.5 - 1.0 - 9.5) * 1e6)
        assert outer["name"] == "sweep.grid"
        assert outer["cat"] == "sweep"

    def test_lane_per_pid_with_main_first(self):
        trace = chrome_trace(
            [
                _span_end("parallel.run_many", t=5.0, seconds=1.0, pid=100),
                _span_end("kernel.run", t=4.0, seconds=0.5, pid=201),
                _span_end("kernel.run", t=4.5, seconds=0.5, pid=202),
            ]
        )
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert lanes == {
            100: "main",
            201: "worker-201",
            202: "worker-202",
        }

    def test_progress_becomes_instant_marks(self):
        trace = chrome_trace(
            [
                {
                    "type": "progress",
                    "t": 3.0,
                    "pid": 1,
                    "name": "sweep.cells",
                    "done": 2,
                    "total": 6,
                }
            ]
        )
        (instant,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "sweep.cells"
        assert instant["args"] == {"done": 2, "total": 6}

    def test_duration_events_become_slices(self):
        trace = chrome_trace(
            [
                {
                    "type": "duration",
                    "t": 2.0,
                    "pid": 1,
                    "path": "kernel.run/draw",
                    "seconds": 0.5,
                    "n": 10,
                }
            ]
        )
        (s,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert s["args"] == {"n": 10}
        assert s["cat"] == "kernel"

    def test_real_pooled_run_has_worker_lanes(self):
        from repro.experiments.scenario import simulation_scenario
        from repro.fastsim.parallel import FastSimJob, run_many

        params = simulation_scenario(scale=0.02)
        jobs = [
            FastSimJob(params=params, strategy=s, seed=3, duration=40.0)
            for s in ("noIndex", "indexAll")
        ]
        obs.enable()
        with events.recorded() as ring:
            run_many(jobs, workers=2, store=None)
        trace = chrome_trace(ring.events())
        json.dumps(trace)  # must serialize
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        worker_lanes = [n for n in lanes.values() if n.startswith("worker-")]
        assert "main" in lanes.values()
        assert 1 <= len(worker_lanes) <= 2
        # Every remote event's pid has a matching worker lane.
        remote_pids = {e["pid"] for e in ring.events() if e.get("remote")}
        assert remote_pids
        assert all(lanes[pid].startswith("worker-") for pid in remote_pids)


class TestRunnerLiveFlags:
    def _run(self, argv):
        from repro.experiments.runner import main

        return main(argv)

    def test_trace_events_progress_end_to_end(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        code = self._run(
            [
                "sim",
                "--engine",
                "vectorized",
                "--scale",
                "0.02",
                "--duration",
                "40",
                "--no-store",
                "--progress",
                "--format",
                "json",
                "--trace-out",
                str(trace_path),
                "--events-out",
                str(events_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # stdout stays parseable JSON; all live rendering goes to stderr.
        result = json.loads(captured.out)
        assert result["experiment"] == "sim"
        assert "kernel.rounds" in captured.err
        assert f"wrote {trace_path}" in captured.err
        trace = json.loads(trace_path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        # The JSONL stream replays to the counters the result's
        # telemetry reported.
        reported = result["telemetry"]["counters"]["kernel.runs"]
        rebuilt = replay(events.read_events(events_path))
        assert rebuilt["counters"]["kernel.runs"] == reported >= 1

    def test_trace_keeps_every_event_it_renders(self, tmp_path, monkeypatch):
        # A bounded ring that also holds every counter drops the oldest
        # slices, and whole worker lanes, once a run outgrows it: shrink
        # the ring so that this short pooled sweep would overflow one.
        monkeypatch.setattr(
            events.RingBufferSink.__init__, "__defaults__", (64,)
        )
        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        code = self._run(
            [
                "sweep", "--scale", "0.02", "--duration", "60",
                "--jobs", "2", "--no-store", "--format", "json",
                "--trace-out", str(trace_path),
                "--events-out", str(events_path),
            ]
        )
        assert code == 0
        phase = {"span_end": "X", "duration": "X", "progress": "i"}
        streamed = collections.Counter(
            (event["pid"], phase[event["type"]])
            for event in events.read_events(events_path)
            if event["type"] in phase
        )
        rendered = collections.Counter(
            (event["pid"], event["ph"])
            for event in json.loads(trace_path.read_text())["traceEvents"]
            if event["ph"] != "M"
        )
        assert rendered == streamed
        assert len({pid for pid, ph in rendered if ph == "X"}) >= 2

    def test_live_flags_do_not_leak_obs_state(self, tmp_path):
        assert not obs.enabled()
        code = self._run(
            [
                "fig1",
                "--engine",
                "vectorized",
                "--scale",
                "0.02",
                "--duration",
                "40",
                "--no-store",
                "--trace-out",
                str(tmp_path / "trace.json"),
            ]
        )
        assert code == 0
        assert not obs.enabled()
        assert not events.recording()
