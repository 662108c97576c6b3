"""Event-stream replay fidelity: the recorded stream IS the profile.

The flight recorder's core contract: a collector snapshot rebuilt from
the event stream alone (:func:`repro.obs.export.replay`) equals the
end-of-run ``Collector.snapshot()`` — for sequential runs, for pooled
runs (whose workers ship events by value and contribute aggregates via
merge events), and through a JSONL file that lost its final line to a
kill.
"""

from __future__ import annotations

import importlib
import itertools
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import events
from repro.experiments.scenario import simulation_scenario
from repro.fastsim.parallel import FastSimJob, run_many

SCALE = 0.02
DURATION = 40.0


@pytest.fixture(scope="module")
def strategy_jobs():
    params = simulation_scenario(scale=SCALE)
    return [
        FastSimJob(params=params, strategy=name, seed=3, duration=DURATION)
        for name in ("noIndex", "indexAll", "partialIdeal", "partialSelection")
    ]


def _profile(snapshot_like) -> dict:
    """The comparable profile content (spans/counters/gauges only)."""
    data = obs.profile_data(snapshot_like)
    return {
        "spans": data["spans"],
        "counters": data["counters"],
        "gauges": data["gauges"],
    }


class TestSequentialFidelity:
    def test_synthetic_stream_matches_snapshot(self):
        obs.enable()
        with events.recorded() as ring:
            with obs.span("sweep.grid", cells=2):
                obs.count("sweep.cells", 2)
                obs.add_duration("sweep.cell", 1.5, n=2)
                obs.gauge_max("kernel.peak_rss_bytes", 77.0)
        snapshot = obs.collector().snapshot()
        assert _profile(obs.replay(ring.events())) == _profile(snapshot)

    def test_sequential_run_many_matches_snapshot(self, strategy_jobs):
        obs.enable()
        with events.recorded() as ring:
            run_many(strategy_jobs, workers=1, store=None)
        snapshot = obs.collector().snapshot()
        rebuilt = obs.replay(ring.events())
        assert _profile(rebuilt) == _profile(snapshot)
        assert rebuilt["counters"]["kernel.runs"] == 4.0

    def test_duplicate_merge_replays_once(self):
        worker = obs.Collector()
        worker.fold({"type": "counter", "name": "kernel.queries", "n": 9})
        snapshot = worker.snapshot()
        obs.enable()
        with events.recorded() as ring:
            with obs.span("parallel.run_many"):
                obs.merge_snapshot(snapshot)
        # A stream that recorded the merge event twice (e.g. a tee into
        # two files concatenated back) must still count once: replay
        # goes through the same duplicate-safe Collector.merge.
        merge_event = next(
            e for e in ring.events() if e["type"] == "merge"
        )
        doubled = ring.events() + [merge_event]
        rebuilt = obs.replay(doubled)
        assert rebuilt["counters"] == {"kernel.queries": 9.0}


NAMES = st.sampled_from(("a", "b", "c"))
ATTRS = st.dictionaries(st.sampled_from(("peers", "seed")), st.integers(0, 3))
#: Seconds in quarters, so every sum is exact in any order.
QUARTERS = st.integers(0, 12).map(lambda k: k / 4)
#: What a worker's snapshot folded: span ends, counters and gauges.
WORKER = st.lists(
    st.one_of(
        st.builds(
            lambda path, seconds, attrs: {
                "type": "span_end", "path": path, "seconds": seconds,
                "attrs": attrs,
            },
            st.sampled_from(("kernel.run", "kernel.run/draw")),
            QUARTERS,
            ATTRS,
        ),
        st.builds(
            lambda name, n: {"type": "counter", "name": name, "n": n},
            NAMES, st.integers(1, 5),
        ),
        st.builds(
            lambda name, value: {"type": "gauge", "name": name, "value": value},
            NAMES, QUARTERS,
        ),
    ),
    max_size=4,
)
ONE_COUNT = [{"type": "counter", "name": "a", "n": 1}]
LEAF = st.one_of(
    st.tuples(st.just("count"), NAMES, st.integers(1, 5)),
    st.tuples(st.just("gauge"), NAMES, QUARTERS),
    st.tuples(st.just("duration"), NAMES, QUARTERS, st.integers(1, 4)),
    # A worker snapshot and how often it is delivered (twice: a repeat).
    st.tuples(st.just("merge"), WORKER, st.integers(1, 2)),
    # The example's one shared snapshot: merged wherever this lands, at
    # the root or inside scopes, in any order.
    st.just(("shared",)),
)
PROGRAMS = st.recursive(
    st.lists(LEAF, max_size=4),
    lambda inner: st.lists(
        st.one_of(
            LEAF,
            st.tuples(st.just("span"), NAMES, ATTRS, inner),
            st.tuples(st.just("scoped"), inner),
        ),
        max_size=4,
    ),
    max_leaves=24,
)


def _snapshot(worker_events) -> dict:
    worker = obs.Collector()
    for event in worker_events:
        worker.fold(event)
    return worker.snapshot()


def _play(program, shared: dict) -> None:
    """Record ``program`` through the module entry points; a ``shared``
    op merges ``shared``."""
    for op in program:
        kind = op[0]
        if kind == "span":
            with obs.span(op[1], **op[2]):
                _play(op[3], shared)
        elif kind == "scoped":
            with obs.scoped():
                _play(op[1], shared)
        elif kind == "shared":
            obs.merge_snapshot(shared)
        elif kind == "count":
            obs.count(op[1], op[2])
        elif kind == "gauge":
            obs.gauge_max(op[1], op[2])
        elif kind == "duration":
            obs.add_duration(op[1], op[2], n=op[3])
        else:
            snapshot = _snapshot(op[1])
            for _ in range(op[2]):
                obs.merge_snapshot(snapshot)


class TestGeneratedFidelity:
    @settings(max_examples=150, deadline=None)
    @given(program=PROGRAMS, shared=WORKER)
    # One snapshot at the root and inside a scope, in both orders.
    @example(
        program=[("shared",), ("scoped", [("shared",)])], shared=ONE_COUNT
    )
    @example(
        program=[("scoped", [("shared",)]), ("shared",)], shared=ONE_COUNT
    )
    def test_replay_of_any_recording_matches_snapshot(self, program, shared):
        # Span seconds come from a clock ticking in eighths, so a scoped
        # child's merged totals sum exactly like the replayed entries.
        ticks = itertools.count()
        clock = types.SimpleNamespace(perf_counter=lambda: next(ticks) / 8)
        obs.set_collector(obs.Collector())
        obs.reset_span_stack()
        obs.enable()
        module = importlib.import_module("repro.obs.collector")
        with mock.patch.object(module, "time", clock):
            with events.recorded() as ring:
                _play(program, _snapshot(shared))
        snapshot = obs.collector().snapshot()
        assert _profile(obs.replay(ring.events())) == _profile(snapshot)


class TestPooledFidelity:
    def test_jobs4_run_many_matches_snapshot(self, strategy_jobs):
        obs.enable()
        with events.recorded() as ring:
            pooled = run_many(strategy_jobs, workers=4, store=None)
        snapshot = obs.collector().snapshot()
        rebuilt = obs.replay(ring.events())
        assert _profile(rebuilt) == _profile(snapshot)
        # The pooled profile carries worker-merged kernel data...
        assert rebuilt["counters"]["kernel.runs"] == 4.0
        # ...and the stream carries the workers' own events, remote-marked,
        # with per-worker pids distinct from the parent's.
        import os

        remote = [e for e in ring.events() if e.get("remote")]
        assert remote
        worker_pids = {e["pid"] for e in remote}
        assert os.getpid() not in worker_pids
        assert all(
            not e.get("remote")
            or e["type"] != "merge"
            for e in ring.events()
        )
        # Sanity: pooled reports exist for all four strategies.
        assert len(pooled) == 4

    def test_pooled_and_sequential_profiles_share_shape(self, strategy_jobs):
        obs.enable()
        with events.recorded() as ring_seq:
            run_many(strategy_jobs, workers=1, store=None)
        sequential = obs.replay(ring_seq.events())
        obs.set_collector(obs.Collector())
        with events.recorded() as ring_pool:
            run_many(strategy_jobs, workers=4, store=None)
        pooled = obs.replay(ring_pool.events())
        span_paths = lambda snap: {  # noqa: E731
            path for path in snap["spans"] if not path.startswith("calibrate.")
        }
        assert span_paths(pooled) == span_paths(sequential)


class TestKilledRunRecovery:
    def test_truncated_jsonl_still_replays(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = events.JsonlSink(path)
        obs.enable()
        with events.recorded(sink):
            with obs.span("sweep.grid"):
                obs.count("sweep.cells", 3)
        sink.close()
        # Simulate a SIGKILL mid-write: append half an event line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "counter", "t": 12.5, "pid"')
        recovered = events.read_events(path)
        rebuilt = obs.replay(recovered)
        assert rebuilt["counters"]["sweep.cells"] == 3.0
        assert "sweep.grid" in rebuilt["spans"]

    def test_recovered_prefix_matches_full_stream_prefix(self, tmp_path):
        # What survives the kill replays identically to the same prefix
        # of the in-memory stream: the file adds nothing and loses only
        # the torn tail.
        path = tmp_path / "events.jsonl"
        sink = events.JsonlSink(path)
        obs.enable()
        with events.recorded(events.TeeSink(sink, ring := events.RingBufferSink())):
            obs.count("kernel.queries", 4)
            obs.count("kernel.runs")
        sink.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # tear the final line
        recovered = events.read_events(path)
        assert recovered == ring.events()[: len(recovered)]
        assert len(recovered) == len(ring.events()) - 1
