"""``tools/pairs.py`` on stub checkouts.

Each stub checkout's ``benchmarks/e2e/run.py`` prints a line of noise and
then the JSON result of its next scripted rep, and logs its side and
arguments to one shared file, so the tests see the order the runs took,
what they were asked, and the table line the tool makes of them. Its
``repro.experiments.runner`` is a stub too: it logs its arguments to a
second file and, under ``--profile``, prints (or writes under
``--output``) the telemetry counters scripted for its side — the work
line's input. The change checkout carries the real
``benchmarks/e2e/workloads.py``, which the tool reads the commands from.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAIRS = REPO / "tools" / "pairs.py"
WORKLOADS = REPO / "benchmarks" / "e2e" / "workloads.py"

SPEC = {
    "command": [sys.executable, "benchmarks/e2e/run.py"],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.02},
        {"name": "ops_n", "unit": "count", "better": "higher",
         "bound": 0.2},
    ],
}

STUB = '''\
import json, sys
from pathlib import Path

here = Path(__file__).parent
reps = {reps!r}
counter = here / "count"
done = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(done + 1))
with open({log!r}, "a") as log:
    log.write({side!r} + " " + " ".join(sys.argv[1:]) + "\\n")
rep = reps[done]
print("wall_s 1.0 s (noise before the result)")
if rep is not None:
    failed, values = rep
    metrics = {{n: {{"value": v, "unit": "x"}} for n, v in values.items()}}
    print(json.dumps({{
        "correct": not failed, "attempted": 2, "failed": failed,
        "metrics": metrics,
    }}))
'''


RUNNER = '''\
import json, sys
from pathlib import Path

args = sys.argv[1:]
with open({log!r}, "a") as log:
    log.write({side!r} + " " + " ".join(args) + "\\n")
counters = {counters!r}
if counters is None:
    sys.exit(1)
if "--profile" in args:
    text = json.dumps({{"figure": {{}}, "telemetry": {{"counters": counters}}}})
    if "--output" in args:
        out = Path(args[args.index("--output") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / (args[0] + ".json")).write_text(text)
        print("wrote", out)
    else:
        print(text)
'''

#: What a profiled run counts: one work counter, and a collector count
#: and two times that are not work.
WORK = {"walk.hops": 228224.0, "gc.collections.gen0": 41.0,
        "gc.pause_s": 0.02, "calibrate.probe_s": 1.5}


def rep(wall, rss, ops, failed=0):
    return failed, {"wall_s": wall, "peak_rss_mb": rss, "ops_n": ops}


def checkouts(tmp_path, parent_reps, change_reps, parent_work=WORK,
              change_work=WORK):
    log = tmp_path / "runs.log"
    roots = {}
    for side, reps, work in (("parent", parent_reps, parent_work),
                             ("change", change_reps, change_work)):
        root = tmp_path / side
        (root / "benchmarks" / "e2e").mkdir(parents=True)
        (root / "benchmarks" / "e2e" / "run.py").write_text(
            STUB.format(reps=reps, log=str(log), side=side)
        )
        package = root / "src" / "repro" / "experiments"
        package.mkdir(parents=True)
        (package.parent / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "runner.py").write_text(RUNNER.format(
            log=str(tmp_path / "work.log"), side=side, counters=work
        ))
        roots[side] = root
    (roots["change"] / "tools").mkdir()
    shutil.copy(PAIRS, roots["change"] / "tools" / "pairs.py")
    shutil.copy(WORKLOADS, roots["change"] / "benchmarks" / "e2e")
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return roots, log


def table_lines(proc):
    """The stdout lines that are not work lines."""
    return [line for line in proc.stdout.splitlines()
            if line.split()[1] != "work:"]


def run_pairs(roots, *args):
    return subprocess.run(
        [sys.executable, str(roots["change"] / "tools" / "pairs.py"),
         "--parent", str(roots["parent"]), *args],
        capture_output=True, text=True, timeout=60,
    )


def test_alternating_pairs_make_one_table_line(tmp_path):
    roots, log = checkouts(
        tmp_path,
        [rep(1.0, 40.0, 10.0), rep(2.0, 40.0, 10.0), rep(3.0, 40.0, 10.0)],
        [rep(0.5, 41.0, 12.0), rep(2.5, 39.0, 12.0), rep(1.0, 42.0, 9.0)],
    )
    proc = run_pairs(roots, "--workload", "sim_event", "--pairs", "3",
                     "--seed", "4")
    assert proc.returncode == 0, proc.stderr
    args = "--workload sim_event --seed 4 --trace 0"
    assert log.read_text().splitlines() == [
        f"{side} {args}"
        for side in ("parent", "change", "change", "parent", "parent",
                     "change")
    ]
    assert proc.stdout.splitlines() == [
        "sim_event  s4 3p; "
        "wall 2.000[1.000,3.000]->1.000 2/3 (-50.0%) unresolved; "
        "rss 40.000[40.000,40.000]->41.000 1/3 (+2.5%) worse; "
        "ops 10.000[10.000,10.000]->12.000 2/3 (+20.0%) same",
        "sim_event  work: 1 equal",
    ]


def test_a_failed_rep_fails_the_tool_and_leaves_its_pair_out(tmp_path):
    roots, _ = checkouts(
        tmp_path,
        [rep(1.0, 40.0, 10.0), rep(2.0, 40.0, 10.0)],
        [rep(0.5, 40.0, 10.0), rep(0.1, 40.0, 10.0, failed=1)],
    )
    proc = run_pairs(roots, "--workload", "churn_cold", "--pairs", "2")
    assert proc.returncode == 1
    assert "pair 2: the change run failed" in proc.stderr
    assert proc.stdout.startswith("churn_cold s0 1p; wall 1.000[1.000,1.000]")


def test_a_run_without_a_json_line_fails_the_tool(tmp_path):
    roots, _ = checkouts(tmp_path, [None], [rep(1.0, 40.0, 10.0)])
    proc = run_pairs(roots, "--workload", "sweep_warm", "--pairs", "1")
    assert proc.returncode == 1
    assert "pair 1: the parent run failed" in proc.stderr
    assert table_lines(proc) == []


def test_a_parent_without_a_benchmark_is_refused(tmp_path):
    roots, _ = checkouts(tmp_path, [], [])
    shutil.rmtree(roots["parent"] / "benchmarks")
    proc = run_pairs(roots, "--workload", "sim_event")
    assert proc.returncode == 2
    assert "no benchmark in the parent checkout" in proc.stderr


def test_checkout_paths_of_different_lengths_are_warned_about(tmp_path):
    roots, _ = checkouts(
        tmp_path, [rep(1.0, 40.0, 10.0)] * 2, [rep(1.0, 40.0, 10.0)] * 2
    )
    proc = run_pairs(roots, "--workload", "sweep_cold", "--pairs", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    roots["parent"] = roots["parent"].rename(tmp_path / "parent-moved")
    proc = run_pairs(roots, "--workload", "sweep_cold", "--pairs", "1")
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        f"warning: the parent path {roots['parent']} and the change path "
        f"{roots['change']} differ in length; peak RSS can step with it"
    ]
    assert proc.stdout.startswith("sweep_cold s0 1p; ")


def test_paths_of_different_lengths_leave_rss_unresolved(tmp_path):
    # The change reads 5% more RSS, past the 2% bound: at paths of equal
    # length that is "worse"; at paths of different lengths the step may
    # be the path's, so the numbers stay and the verdict is withheld.
    # Wall and ops do not step with the path and keep theirs.
    roots, _ = checkouts(
        tmp_path, [rep(1.0, 40.0, 10.0)] * 4, [rep(1.0, 42.0, 10.0)] * 4
    )
    proc = run_pairs(roots, "--workload", "sweep_cold", "--pairs", "2")
    assert verdicts(proc) == [{"wall": "same", "rss": "worse", "ops": "same"}]
    roots["parent"] = roots["parent"].rename(tmp_path / "parent-moved")
    proc = run_pairs(roots, "--workload", "sweep_cold", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    assert table_lines(proc) == [
        "sweep_cold s0 2p; "
        "wall 1.000[1.000,1.000]->1.000 0/2 (+0.0%) same; "
        "rss 40.000[40.000,40.000]->42.000 0/2 (+5.0%) "
        "unresolved (paths differ); "
        "ops 10.000[10.000,10.000]->10.000 0/2 (+0.0%) same"
    ]


def verdicts(proc):
    """``{short metric name: verdict}`` of each table line printed."""
    return [
        {part.split()[0]: part.split()[-1] for part in line.split("; ")[1:]}
        for line in table_lines(proc)
    ]


# Ten pairs: the parent's walls spread 1.00-1.09 (quartiles ~1.02, ~1.07).
PARENT_WALLS = [1.00 + 0.01 * i for i in range(10)]


def test_nine_wins_and_a_median_past_the_spread_is_a_gain(tmp_path):
    change = [0.90] * 9 + [1.50]  # loses one pair, by a lot
    roots, _ = checkouts(
        tmp_path,
        [rep(w, 40.0, 10.0) for w in PARENT_WALLS],
        [rep(w, 40.0, 10.0) for w in change],
    )
    proc = run_pairs(roots, "--workload", "churn_cold", "--pairs", "10")
    assert proc.returncode == 0, proc.stderr
    assert verdicts(proc) == [{"wall": "gain", "rss": "same", "ops": "same"}]


def test_eight_wins_or_a_median_inside_the_spread_is_no_gain(tmp_path):
    eight = [0.90] * 8 + [1.50, 1.50]
    inside = [w - 0.005 for w in PARENT_WALLS]  # wins every pair, barely
    for name, change in (("eight", eight), ("inside", inside)):
        roots, _ = checkouts(
            tmp_path / name,
            [rep(w, 40.0, 10.0) for w in PARENT_WALLS],
            [rep(w, 40.0, 10.0) for w in change],
        )
        proc = run_pairs(roots, "--workload", "churn_cold", "--pairs", "10")
        assert verdicts(proc) == [
            {"wall": "same", "rss": "same", "ops": "same"}
        ], name


def test_a_median_past_the_bound_is_worse_either_way(tmp_path):
    # rss's bound is 2% (lower is better), ops' is 20% (higher is better).
    roots, _ = checkouts(
        tmp_path,
        [rep(1.0, 40.0, 10.0)] * 3,
        [rep(1.0, 40.9, 7.9)] * 3,
    )
    proc = run_pairs(roots, "--workload", "sweep_cold", "--pairs", "3")
    assert verdicts(proc) == [{"wall": "same", "rss": "worse", "ops": "worse"}]


def test_a_parent_spread_past_the_bound_is_unresolved(tmp_path):
    # The parent's rss quartiles are 4 MB apart, past 2% of 40 MB, and
    # the change's runs overlap the parent's: nothing can be told. When
    # every change run beats every parent run, the spread does not hide
    # that it is no worse.
    parent = [rep(1.0, rss, 10.0) for rss in (36.0, 40.0, 44.0, 40.0)]
    overlapping = [rep(1.0, rss, 10.0) for rss in (40.0, 41.0, 39.0, 37.0)]
    below = [rep(1.0, rss, 10.0) for rss in (35.0, 35.5, 35.0, 35.5)]
    expected = {"overlapping": "unresolved", "below": "same"}
    for name, change in (("overlapping", overlapping), ("below", below)):
        roots, _ = checkouts(tmp_path / name, parent, change)
        proc = run_pairs(roots, "--workload", "sweep_pool", "--pairs", "4")
        assert verdicts(proc) == [
            {"wall": "same", "rss": expected[name], "ops": "same"}
        ], name


def test_several_workloads_run_one_after_the_other(tmp_path):
    roots, log = checkouts(
        tmp_path, [rep(1.0, 40.0, 10.0)] * 4, [rep(1.0, 40.0, 10.0)] * 4
    )
    proc = run_pairs(roots, "--workload", "sim_event", "sweep_warm",
                     "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [
        ["sim_event", "s0"], ["sim_event", "work:"],
        ["sweep_warm", "s0"], ["sweep_warm", "work:"],
    ]
    assert [line.split()[2] for line in log.read_text().splitlines()] == [
        "sim_event"] * 4 + ["sweep_warm"] * 4


# ----------------------------------------------------------------------
# The work line
# ----------------------------------------------------------------------
def work_log(tmp_path):
    return (tmp_path / "work.log").read_text().splitlines()


def test_the_work_line_names_each_moved_counter(tmp_path):
    change = {**WORK, "walk.hops": 228000.0, "cache.placement.hit": 3.0,
              "gc.pause_s": 0.01, "strategy.build_s": 0.2,
              "rusage.kernel.minflt": 2048.0}
    parent = {**WORK, "dht.routes.rebuild": 3.0, "cache.rows.size": 2.5}
    roots, _ = checkouts(tmp_path, [rep(1.0, 40.0, 10.0)],
                         [rep(1.0, 40.0, 10.0)], parent, change)
    proc = run_pairs(roots, "--workload", "sim_event", "--pairs", "1",
                     "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == (
        "sim_event  work: 0 equal; cache.placement.hit -->3; "
        "cache.rows.size 2.5->-; dht.routes.rebuild 3->-; "
        "walk.hops 228224->228000"
    )
    # One profiled run a side, after the pairs, of the workload's own
    # runner command with the seed.
    assert work_log(tmp_path) == [
        f"{side} sim --engine event --duration 150 --seed 3 --no-store "
        "--format json --profile"
        for side in ("parent", "change")
    ]


def test_a_warm_workload_is_profiled_against_its_populated_store(tmp_path):
    roots, _ = checkouts(tmp_path, [rep(1.0, 40.0, 10.0)],
                         [rep(1.0, 40.0, 10.0)])
    proc = run_pairs(roots, "--workload", "sweep_warm", "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "sweep_warm work: 1 equal"
    populate, profiled = work_log(tmp_path)[:2]
    assert populate.startswith("parent sweep --scale 8 --jobs 1 --seed 0 "
                               "--store ")
    assert "--profile" not in populate
    store = populate.split()[populate.split().index("--store") + 1]
    assert f"--store {store} --format json --output " in profiled
    assert profiled.endswith(" --profile")


def test_a_failed_work_run_fails_the_tool(tmp_path):
    roots, _ = checkouts(tmp_path, [rep(1.0, 40.0, 10.0)],
                         [rep(1.0, 40.0, 10.0)], change_work=None)
    proc = run_pairs(roots, "--workload", "churn_cold", "--pairs", "1")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["churn_cold work: the change run failed"]
    assert len(proc.stdout.splitlines()) == 1  # the table line alone


def test_a_pooled_workload_reads_each_cache_as_its_lookups(tmp_path):
    # A per-process cache splits its hits and misses by which worker drew
    # which cell: on sweep_pool (two processes) only their sum is work,
    # on sweep_cold (one) each still counts.
    parent = {**WORK, "cache.zipf_guide.hit": 21.0,
              "cache.zipf_guide.miss": 3.0, "cache.costs.miss": 16.0}
    change = {**WORK, "cache.zipf_guide.hit": 20.0,
              "cache.zipf_guide.miss": 4.0, "cache.costs.miss": 17.0}
    lines = {}
    for workload in ("sweep_pool", "sweep_cold"):
        roots, _ = checkouts(tmp_path / workload, [rep(1.0, 40.0, 10.0)],
                             [rep(1.0, 40.0, 10.0)], parent, change)
        proc = run_pairs(roots, "--workload", workload, "--pairs", "1")
        assert proc.returncode == 0, proc.stderr
        lines[workload] = proc.stdout.splitlines()[1]
    assert lines["sweep_pool"] == (
        "sweep_pool work: 2 equal; cache.costs.lookups 16->17"
    )
    assert lines["sweep_cold"] == (
        "sweep_cold work: 1 equal; cache.costs.miss 16->17; "
        "cache.zipf_guide.hit 21->20; cache.zipf_guide.miss 3->4"
    )


def test_a_pooled_workload_leaves_out_the_per_process_counters(tmp_path):
    # Each pool worker builds its own Zipf CDF, so the count moves with
    # which worker drew which unit: two runs of one commit read 5 and 3.
    parent = {**WORK, "zipf.cdf.builds": 5.0, "kernel.spans": 516.0}
    change = {**WORK, "zipf.cdf.builds": 3.0, "kernel.spans": 517.0}
    lines = {}
    for workload in ("sweep_pool", "sweep_cold"):
        roots, _ = checkouts(tmp_path / workload, [rep(1.0, 40.0, 10.0)],
                             [rep(1.0, 40.0, 10.0)], parent, change)
        proc = run_pairs(roots, "--workload", workload, "--pairs", "1")
        assert proc.returncode == 0, proc.stderr
        lines[workload] = proc.stdout.splitlines()[1]
    assert lines["sweep_pool"] == (
        "sweep_pool work: 1 equal; kernel.spans 516->517"
    )
    assert lines["sweep_cold"] == (
        "sweep_cold work: 1 equal; kernel.spans 516->517; "
        "zipf.cdf.builds 5->3"
    )
