"""Unit tests for the repro.obs collection primitives."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.obs import events


def _loaded(spans=(), counters=(), gauges=()):
    """A fresh collector that folded one event per given entry."""
    child = obs.Collector()
    for path, seconds in spans:
        child.fold({"type": "span_end", "path": path, "seconds": seconds})
    for name, n in counters:
        child.fold({"type": "counter", "name": name, "n": n})
    for name, value in gauges:
        child.fold({"type": "gauge", "name": name, "value": value})
    return child


class TestSpans:
    def test_span_records_path_count_and_seconds(self):
        obs.enable()
        with obs.span("outer"):
            time.sleep(0.01)
        spans = obs.collector().snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer"]["seconds"] >= 0.01

    def test_spans_nest_into_slash_joined_paths(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.collector().snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert "inner" not in spans

    def test_span_attrs_last_writer_wins(self):
        obs.enable()
        with obs.span("calibrate.churn", peers=500, seed=0):
            pass
        with obs.span("calibrate.churn", peers=5000):
            pass
        attrs = obs.collector().snapshot()["spans"]["calibrate.churn"]["attrs"]
        assert attrs == {"peers": 5000, "seed": 0}

    def test_inner_seconds_bounded_by_outer(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.01)
        spans = obs.collector().snapshot()["spans"]
        assert spans["outer"]["seconds"] >= spans["outer/inner"]["seconds"]

    def test_add_duration_appends_to_current_stack(self):
        obs.enable()
        with obs.span("kernel.run"):
            obs.add_duration("round.queries", 1.5, n=300)
        spans = obs.collector().snapshot()["spans"]
        assert spans["kernel.run/round.queries"]["count"] == 300
        assert spans["kernel.run/round.queries"]["seconds"] == 1.5

    def test_exception_inside_span_still_recorded(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert obs.collector().snapshot()["spans"]["boom"]["count"] == 1
        # the stack unwound: a follow-up span is not nested under "boom"
        with obs.span("after"):
            pass
        assert "after" in obs.collector().snapshot()["spans"]

    def test_reset_span_stack_reroots_paths(self):
        obs.enable()
        span = obs.span("stuck")
        span.__enter__()
        obs.reset_span_stack()
        with obs.span("fresh"):
            pass
        assert "fresh" in obs.collector().snapshot()["spans"]


class TestDisabled:
    def test_disabled_records_nothing(self):
        with obs.span("outer", peers=1):
            pass
        obs.count("hits")
        obs.gauge_max("peak", 10.0)
        obs.add_duration("phase", 1.0)
        collected = obs.collector()
        assert not collected
        assert collected.snapshot()["spans"] == {}
        assert collected.counters == {}
        assert collected.snapshot()["gauges"] == {}

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("a") is obs.span("b")

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_repro_obs_env_enables_at_import(self):
        code = "from repro import obs; print(obs.enabled())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_OBS": "1"},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
        )
        assert out.stdout.strip() == "True", out.stderr


class TestCountersAndGauges:
    def test_counters_sum(self):
        obs.enable()
        obs.count("cache.hit")
        obs.count("cache.hit", 2)
        assert obs.collector().counters["cache.hit"] == 3

    def test_gauges_keep_maximum(self):
        obs.enable()
        obs.gauge_max("peak", 10.0)
        obs.gauge_max("peak", 5.0)
        obs.gauge_max("peak", 12.0)
        assert obs.collector().snapshot()["gauges"]["peak"] == 12.0

    def test_peak_rss_positive_and_sampled(self):
        assert obs.peak_rss_bytes() > 0
        obs.enable()
        sampled = obs.sample_peak_rss("worker")
        assert sampled == obs.collector().snapshot()["gauges"]["worker.peak_rss_bytes"]

    def test_sample_peak_rss_disabled_returns_without_recording(self):
        assert obs.sample_peak_rss() > 0
        assert obs.collector().snapshot()["gauges"] == {}


class TestCollectorPassesAreNamed:
    def test_report_gc_counts_passes_and_pause_since_enable(self):
        gc.collect()  # before enable(): never counted
        obs.enable()
        gc.collect()
        gc.collect(0)
        assert obs.collector().counters == {}  # tallied, not yet recorded
        obs.report_gc()
        counters = obs.collector().counters
        assert counters["gc.collections.gen2"] == 1
        assert counters["gc.collections.gen0"] >= 1
        assert counters["gc.pause_s"] > 0.0
        # Reported once: a second call adds only what happened since.
        obs.report_gc()
        assert obs.collector().counters["gc.collections.gen2"] == 1

    def test_hook_is_installed_only_while_enabled(self):
        from repro.obs.collector import _on_gc

        assert _on_gc not in gc.callbacks
        obs.enable()
        obs.enable()
        assert gc.callbacks.count(_on_gc) == 1
        obs.disable()
        assert _on_gc not in gc.callbacks
        gc.collect()
        obs.report_gc()
        obs.enable()
        obs.report_gc()
        assert "gc.collections.gen2" not in obs.collector().counters


class TestFold:
    def test_duration_adds_n_entries_and_span_attrs_last_writer_wins(self):
        collector = obs.Collector()
        collector.fold({"type": "duration", "path": "p", "seconds": 2.0, "n": 5})
        collector.fold(
            {"type": "span_end", "path": "p", "seconds": 1.0, "attrs": {"a": 1}}
        )
        collector.fold(
            {"type": "span_end", "path": "p", "seconds": 1.0, "attrs": {"a": 2}}
        )
        assert collector.snapshot()["spans"]["p"] == {
            "count": 7, "seconds": 4.0, "attrs": {"a": 2},
        }

    def test_other_types_change_nothing(self):
        collector = obs.Collector()
        for kind in ("span_start", "progress"):
            assert not collector.fold({"type": kind, "name": "x", "path": "x"})
        assert not collector


class TestSnapshotMerge:
    def test_snapshot_is_json_roundtrippable(self):
        child = _loaded(
            spans=[("a", 1.0)], counters=[("c", 2)], gauges=[("g", 3.0)]
        )
        snapshot = json.loads(json.dumps(child.snapshot()))
        assert snapshot["schema"] == obs.SNAPSHOT_SCHEMA
        assert snapshot["spans"]["a"]["seconds"] == 1.0

    def test_merge_sums_spans_and_counters_maxes_gauges(self):
        parent = _loaded(
            spans=[("a", 1.0)], counters=[("c", 1)], gauges=[("g", 5.0)]
        )
        child = _loaded(
            spans=[("a", 2.0), ("b", 0.5)],
            counters=[("c", 2)],
            gauges=[("g", 3.0)],
        )
        assert parent.merge(child.snapshot())
        assert parent.snapshot()["spans"]["a"]["seconds"] == 3.0
        assert parent.snapshot()["spans"]["a"]["count"] == 2
        assert parent.snapshot()["spans"]["b"]["count"] == 1
        assert parent.counters["c"] == 3
        assert parent.snapshot()["gauges"]["g"] == 5.0

    def test_merge_is_duplicate_safe(self):
        parent = obs.Collector()
        child = _loaded(counters=[("c", 1)])
        snapshot = child.snapshot()
        assert parent.merge(snapshot)
        assert not parent.merge(snapshot)
        assert parent.counters["c"] == 1

    def test_merge_is_order_independent(self):
        one = _loaded(spans=[("a", 1.0)], counters=[("c", 1)])
        two = _loaded(spans=[("a", 2.0)], counters=[("c", 2)])
        forward, backward = obs.Collector(), obs.Collector()
        forward.merge(one.snapshot())
        forward.merge(two.snapshot())
        backward.merge(two.snapshot())
        backward.merge(one.snapshot())
        assert forward.snapshot()["spans"] == backward.snapshot()["spans"]
        assert forward.counters == backward.counters

    def test_merge_dedups_through_relays(self):
        # worker -> sweep -> runner: the runner later seeing the worker's
        # own snapshot again must not double-count it.
        worker = _loaded(counters=[("c", 1)])
        sweep = obs.Collector()
        sweep.merge(worker.snapshot())
        runner = obs.Collector()
        runner.merge(sweep.snapshot())
        assert not runner.merge(worker.snapshot())
        assert runner.counters["c"] == 1

    def test_merge_prefix_reroots_spans_not_counters(self):
        parent = obs.Collector()
        child = _loaded(
            spans=[("kernel.run", 1.0)],
            counters=[("kernel.runs", 1)],
            gauges=[("worker.peak_rss_bytes", 5.0)],
        )
        assert parent.merge(child.snapshot(), prefix="parallel.run_many")
        assert "parallel.run_many/kernel.run" in parent.snapshot()["spans"]
        assert parent.counters["kernel.runs"] == 1
        assert parent.snapshot()["gauges"]["worker.peak_rss_bytes"] == 5.0

    def test_merge_snapshot_reroots_under_open_span(self):
        obs.enable()
        child = _loaded(spans=[("kernel.run", 1.0)])
        with obs.span("parallel.run_many"):
            assert obs.merge_snapshot(child.snapshot())
        spans = obs.collector().snapshot()["spans"]
        assert spans["parallel.run_many/kernel.run"]["count"] == 1

    def test_merge_snapshot_disabled_is_noop(self):
        child = _loaded(spans=[("kernel.run", 1.0)])
        assert not obs.merge_snapshot(child.snapshot())
        assert not obs.collector()

    def test_merge_none_and_self_are_noops(self):
        parent = _loaded(counters=[("c", 1)])
        assert not parent.merge(None)
        assert not parent.merge({})
        assert not parent.merge(parent.snapshot())
        assert parent.counters["c"] == 1


class TestScoped:
    def test_scoped_merges_back_into_parent(self):
        obs.enable()
        parent = obs.collector()
        with obs.scoped() as local:
            obs.count("c")
            assert obs.collector() is local
        assert obs.collector() is parent
        assert parent.counters["c"] == 1
        assert local.counters["c"] == 1

    @pytest.mark.parametrize("root_first", [True, False])
    def test_a_snapshot_merged_at_the_root_and_in_a_scope_counts_once(
        self, root_first
    ):
        # The scope's child refuses what its parent already merged, as
        # replay's one collector does; otherwise the parent takes the
        # snapshot back through the child's totals.
        worker = obs.Collector()
        worker.fold({"type": "counter", "name": "x", "n": 1.0})
        snapshot = worker.snapshot()
        obs.enable()
        with events.recorded() as ring:
            if root_first:
                obs.merge_snapshot(snapshot)
            with obs.scoped():
                obs.merge_snapshot(snapshot)
            if not root_first:
                obs.merge_snapshot(snapshot)
        assert obs.collector().counters == {"x": 1.0}
        assert obs.replay(ring.events())["counters"] == {"x": 1.0}

    def test_fresh_collector_keeps_parent_clean(self):
        obs.enable()
        parent = obs.set_collector(obs.Collector())
        obs.count("c")
        obs.set_collector(parent)
        assert parent.counters == {}


class TestProfileRendering:
    def _sample(self):
        return _loaded(
            spans=[
                ("experiment.run", 2.0),
                ("experiment.run/kernel.run", 1.5),
                ("experiment.run/kernel.run/round.queries", 1.0),
            ],
            counters=[("kernel.rounds", 300)],
            gauges=[("worker.peak_rss_bytes", 512 * 2**20)],
        )

    def test_profile_text_renders_nested_tree(self):
        text = obs.profile_text(self._sample(), title="profile: test")
        assert "profile: test" in text
        assert "experiment.run" in text
        assert "kernel.run" in text
        assert "round.queries" in text
        assert "kernel.rounds" in text
        # RSS gauges render as MiB, not raw bytes
        assert "512" in text and "MiB" in text

    def test_profile_text_accepts_snapshot_dict(self):
        from_dict = obs.profile_text(self._sample().snapshot())
        from_collector = obs.profile_text(self._sample())
        assert from_dict == from_collector

    def test_profile_json_parses(self):
        data = json.loads(json.dumps(obs.profile_data(self._sample())))
        assert data["counters"]["kernel.rounds"] == 300

    def test_profile_text_indents_children_under_parents(self):
        lines = obs.profile_text(self._sample()).splitlines()
        by_name = {
            line.strip().split()[0]: len(line) - len(line.lstrip())
            for line in lines[2:5]
        }
        assert (
            by_name["experiment.run"]
            < by_name["kernel.run"]
            < by_name["round.queries"]
        )
