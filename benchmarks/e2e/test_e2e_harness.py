"""Fast self-tests of the benchmark harness (stub commands, < 5 s).

They run no workload: spans use a fake clock, reps are ``python -c``
stubs, and the only thing imported from the program is nothing at all.
"""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import cold  # noqa: E402
import diff  # noqa: E402
import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, by_name  # noqa: E402

SPEC = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# span stack
# ----------------------------------------------------------------------
def test_self_time_nested_and_reentrant() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    outer = rec.push("run", "experiments")          # 0 .. 10
    clock.now = 1.0
    first = rec.push("solve", "analysis")           # 1 .. 5
    clock.now = 2.0
    inner = rec.push("solve", "analysis")           # 2 .. 4, re-entrant
    clock.now = 4.0
    rec.pop(inner)
    clock.now = 5.0
    rec.pop(first)
    clock.now = 6.0
    second = rec.push("kernel", "kernel")           # 6 .. 9
    clock.now = 9.0
    rec.pop(second)
    clock.now = 10.0
    rec.pop(outer)

    assert rec.spans[outer].self_time == pytest.approx(3.0)   # 10 - 4 - 3
    assert rec.spans[first].self_time == pytest.approx(2.0)   # 4 - 2
    assert rec.self_time("solve") == pytest.approx(4.0)
    assert rec.inclusive("solve") == pytest.approx(4.0)       # outermost only
    assert rec.calls("solve") == 2
    assert rec.layer_self_time() == pytest.approx(
        {"experiments": 3.0, "analysis": 4.0, "kernel": 3.0}
    )
    # self times under one root sum to the root's duration
    assert sum(s.self_time for s in rec.spans) == pytest.approx(10.0)
    assert [row["parent"] for row in rec.to_rows()] == [None, 0, 1, 0]


def test_span_closed_out_of_order_is_an_error() -> None:
    rec = SpanRecorder(clock=FakeClock())
    a = rec.push("a", "x")
    rec.push("b", "x")
    with pytest.raises(RuntimeError):
        rec.pop(a)


def test_wrappers_record_and_restore_every_binding() -> None:
    package = types.ModuleType("e2e_fake_pkg")
    user = types.ModuleType("e2e_fake_pkg.user")

    def work(x: int) -> int:
        return x + 1

    class Thing:
        def method(self) -> str:
            return "m"

        @classmethod
        def build(cls) -> "Thing":
            return cls()

    package.work = work
    user.renamed = work  # ``from pkg import work as renamed``
    sys.modules["e2e_fake_pkg"] = package
    sys.modules["e2e_fake_pkg.user"] = user
    originals = (package.work, user.renamed,
                 Thing.__dict__["method"], Thing.__dict__["build"])
    try:
        rec = SpanRecorder()
        seen: list[int] = []
        with Patcher(rec, "e2e_fake_pkg") as patcher:
            patcher.wrap(package, "work", "layer", "pkg.work",
                         before=lambda args, kwargs: args[0],
                         after=lambda token, a, k, result: seen.append(result - token))
            patcher.wrap(Thing, "method", "layer", "Thing.method")
            patcher.wrap(Thing, "build", "layer", "Thing.build")
            assert package.work(1) == 2 and user.renamed(5) == 6
            assert Thing.build().method() == "m"
        assert seen == [1, 1]
        assert [s.name for s in rec.spans] == [
            "pkg.work", "pkg.work", "Thing.build", "Thing.method"]
        assert (package.work, user.renamed, Thing.__dict__["method"],
                Thing.__dict__["build"]) == originals
        package.work(1)
        assert len(rec.spans) == 4  # restored: nothing records any more
    finally:
        del sys.modules["e2e_fake_pkg"], sys.modules["e2e_fake_pkg.user"]


def test_wrapper_closes_its_span_when_the_call_raises() -> None:
    holder = types.ModuleType("e2e_fake_raises")

    def boom() -> None:
        raise ValueError("x")

    holder.boom = boom
    sys.modules["e2e_fake_raises"] = holder
    try:
        rec = SpanRecorder()
        with Patcher(rec, "e2e_fake_raises") as patcher:
            patcher.wrap(holder, "boom", "layer", "boom")
            with pytest.raises(ValueError):
                holder.boom()
        assert rec.calls("boom") == 1 and not rec._stack
    finally:
        del sys.modules["e2e_fake_raises"]


# ----------------------------------------------------------------------
# aggregation and the machine sentinel
# ----------------------------------------------------------------------
def test_summary_is_min_median_quartiles() -> None:
    stats = cold.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert stats == {"min": 1.0, "q1": 1.5, "median": 3.0, "q3": 4.5,
                     "max": 5.0, "n": 5}
    assert cold.summary([2.0])["median"] == 2.0


def test_trimmed_mean_drops_a_tenth_at_each_end() -> None:
    assert cold.trimmed_mean([1.0] * 18 + [0.0, 100.0]) == 1.0
    assert cold.trimmed_mean([3.0]) == 3.0
    assert cold.trimmed_mean([1.0, 2.0, 6.0]) == 3.0   # too few to trim


def test_sentinel_ticks_on_the_childs_cpus_and_affinity_is_restored() -> None:
    before = os.sched_getaffinity(0)
    cpus = cold.cpus_for(2)
    assert set(cpus) <= before and cold.cpus_for(1) == cpus[-1:]
    with cold.confined(cpus) as tick_s:
        assert os.sched_getaffinity(0) == set(cpus)
    assert os.sched_getaffinity(0) == before
    assert len(tick_s) == 1 and tick_s[0] > 0


def test_every_workload_makes_a_fixed_number_of_reps() -> None:
    assert all(w.reps >= 2 and w.processes >= 1 for w in WORKLOADS)
    assert by_name("sweep_pool").processes == 2


def test_seed_is_passed_through_unless_the_workload_fixes_one(tmp_path: Path) -> None:
    argv = by_name("sweep_cold").runner_argv(7, tmp_path, "rep0")
    assert argv[argv.index("--seed") + 1] == "7"
    argv = by_name("churn_cold").runner_argv(7, tmp_path, "rep0")
    assert argv.count("--seed") == 1 and argv[argv.index("--seed") + 1] == "0"


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
FIGURE = {"x_values": ["a", "b"],
          "series": {"hit rate": [0.5, 1.0], "msg/s": [10.0, 2e6]}}


def result_json(figure: dict) -> str:
    return json.dumps({"experiment": "x", "figure": figure})


def test_comparator_passes_on_equal_and_fails_on_a_perturbed_series() -> None:
    actual = outputs.figure_of(result_json(FIGURE))
    assert outputs.compare_figures(actual, FIGURE) == []
    assert outputs.range_problems(actual) == []
    nudged = json.loads(json.dumps(FIGURE))
    nudged["series"]["msg/s"][1] *= 1 + 1e-12   # inside the tolerance
    assert outputs.compare_figures(actual, nudged) == []
    nudged["series"]["msg/s"][1] *= 1 + 1e-6
    assert outputs.compare_figures(actual, nudged) == [
        "msg/s[1]: 2000000.0 != expected 2000002.000002"]
    assert outputs.compare_figures(actual, nudged, only=["hit rate"]) == []
    assert outputs.compare_figures(actual, nudged, rel_tol=0.0)
    relabelled = dict(FIGURE, x_values=["a", "c"])
    assert outputs.compare_figures(actual, relabelled)


def test_range_check_rejects_impossible_values() -> None:
    bad = {"x_values": ["a", "b"],
           "series": {"hit rate": [1.5, 0.2], "msg/s": [float("nan"), -1.0]}}
    assert len(outputs.range_problems(bad)) == 3


def _session(tmp_path: Path, expected: dict) -> run.Session:
    session = run.Session(expected["seed"], 30.0, [by_name("sim_event")],
                          bench_dir=tmp_path)
    session.expected = expected
    return session


def test_rep_fails_on_perturbed_expectation_and_on_nonzero_exit(tmp_path: Path) -> None:
    workload = by_name("sim_event")
    good = {"seed": 0, "workloads": {workload.name: FIGURE}}
    session = _session(tmp_path, good)
    printer = f"print({result_json(FIGURE)!r})"

    outcome = run.Outcome(workload)
    rep = session.spawn([sys.executable, "-c", printer], "ok")
    assert rep.exit_code == 0 and rep.wall_s > 0 and rep.peak_rss_mb > 1
    assert rep.slowdown > 0
    assert rep.at_reference_speed(rep.wall_s) == rep.wall_s / rep.slowdown
    assert session.check(outcome, rep, "rep0", None)
    assert (outcome.failed, outcome.failures) == (0, [])

    perturbed = json.loads(json.dumps(good))
    perturbed["workloads"][workload.name]["series"]["msg/s"][0] = 11.0
    outcome = run.Outcome(workload)
    assert not _session(tmp_path, perturbed).check(outcome, rep, "rep0", None)
    assert outcome.failed == 1 and not outcome.as_json()["correct"]

    outcome = run.Outcome(workload)
    crashed = session.spawn(
        [sys.executable, "-c", printer + "; raise SystemExit(3)"], "crash")
    assert crashed.exit_code == 3
    assert not session.check(outcome, crashed, "rep0", None)
    assert outcome.failed == 1 and "exit code 3" in outcome.failures[0]


def test_a_rep_that_hangs_is_killed_with_its_process_tree(tmp_path: Path) -> None:
    rep = cold.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                     cold.child_env(tmp_path / "pyc"), tmp_path / "hang",
                     cold.cpus_for(1), timeout=0.3)
    assert rep.exit_code != 0 and rep.wall_s < 10


# ----------------------------------------------------------------------
# names: BENCHMARK.json and the harness must agree exactly
# ----------------------------------------------------------------------
def test_benchmark_json_names_are_the_names_the_harness_emits() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert layers.layer_metrics(SpanRecorder(), {}).keys() == layers.LAYER_METRICS.keys()
    assert SPEC["paths"] == [str(HERE.relative_to(run.REPO_ROOT))]
    assert SPEC["command"][-1] == str(Path(__file__).with_name("run.py")
                                      .relative_to(run.REPO_ROOT))


def test_benchmark_json_meets_the_contract_limits() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_expected_figures_cover_every_workload() -> None:
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    assert expected["seed"] == 0
    assert set(expected["workloads"]) == {w.name for w in WORKLOADS}
    for workload in WORKLOADS:
        figure = expected["workloads"][workload.name]
        assert outputs.range_problems(figure) == []
        assert set(workload.seed_free_series) <= set(figure["series"])
    sweeps = [expected["workloads"][w.name] for w in WORKLOADS
              if w.figure_group == "sweep"]
    assert len(sweeps) == 3 and all(f == sweeps[0] for f in sweeps)


# ----------------------------------------------------------------------
# diff mode
# ----------------------------------------------------------------------
def test_verdicts_use_the_bound_and_the_direction() -> None:
    assert diff.verdict(10.0, 8.0, "lower", 0.1) == "improved"
    assert diff.verdict(10.0, 11.5, "lower", 0.1) == "worse"
    assert diff.verdict(10.0, 10.5, "lower", 0.1) == "within bound"
    assert diff.verdict(10.0, 12.0, "higher", 0.1) == "improved"
    assert diff.verdict(0.0, 1.0, "lower", 0.1) == "no base"


def _result(wall: float, runs: int) -> dict:
    return {"sweep_cold": {
        "wall_s": {"value": wall, "unit": "s"},
        "kernel.runs": {"value": runs, "unit": "count"},
        "kernel.run_s": {"value": wall / 4, "unit": "s"},
    }}


def test_diff_table_reports_ratio_verdict_and_changed_counts() -> None:
    text = "\n".join(diff.diff_table(_result(4.0, 18), _result(2.0, 17), SPEC))
    assert "0.500x of 4 s" in text and "improved" in text
    assert "counts that changed: sweep_cold kernel.runs: 18 -> 17" in text
    same = "\n".join(diff.diff_table(_result(4.0, 18), _result(4.1, 18), SPEC))
    assert "within bound" in same and "counts that changed: none" in same


def test_repeatability_summary_flags_spread_and_count_drift() -> None:
    steady = diff.repeatability(
        [_result(4.0, 18), _result(4.1, 18), _result(4.05, 18)], SPEC)
    row = steady["end_to_end"]["sweep_cold"]["wall_s"]
    assert row["max_pairwise_rel_diff"] == pytest.approx(0.025)
    assert steady["all_within_bound"] and steady["all_counts_identical"]
    drifting = diff.repeatability([_result(4.0, 18), _result(6.0, 17)], SPEC)
    assert not drifting["all_within_bound"]
    assert not drifting["counts"]["sweep_cold"]["kernel.runs"]["identical"]
