"""``tools/smoke.py``: each row's check on stub outputs, the runner on
``python -c`` stubs, and the CI file that runs the table.

No smoke command runs here: the table itself runs after tier-1 in CI
(``python3 tools/smoke.py``). Each row's check must pass its stub
outputs and reject each doctored copy, one per assertion.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import smoke  # noqa: E402
from smoke import Command, Failed, Smoke  # noqa: E402


def _run_json(counters, spans=None, figure=None) -> str:
    return json.dumps({"figure": figure or {"series": {"a": [1.0]}},
                       "telemetry": {"counters": counters, "spans": spans or {}}})


def _lookup_json(counters, source, series=None) -> str:
    figure = {"series": series or {"a": [1.0], "b": [2.0]}}
    return json.dumps({"figure": figure, "provenance": {"source": source},
                       "telemetry": {"counters": counters, "spans": {}}})


DRAW = "experiment.run/sweep.grid/parallel.run_many/kernel.run/draw"
SWEEP = {DRAW: {"count": 24}}
LANES = {"kernel.queries": 8097606, "kernel.rounds": 4320}
FIGURE_HIT = {"cache.store.replicate.hit": 1}
CHURN = {"cache.store.sweep_cell.hit": 3}
TRACKING = {"cache.store.sweep_cell.hit": 8}
TRACE = [
    {"ph": "M", "pid": 1, "args": {"name": "main"}},
    {"ph": "M", "pid": 2, "args": {"name": "worker-2"}},
    {"ph": "X", "pid": 1}, {"ph": "X", "pid": 2}, {"ph": "X", "pid": 2},
]
STREAM = "".join(json.dumps(e) + "\n" for e in (
    {"type": "span_end", "pid": 1}, {"type": "counter", "pid": 1},
    {"type": "span_end", "pid": 2, "remote": True},
    {"type": "duration", "pid": 2, "remote": True},
))


def _trace(events) -> str:
    return json.dumps({"traceEvents": events})


def _replay(cells=18, events=40) -> str:
    return json.dumps({"events": events, "counters": {"sweep.cells": cells},
                       "spans": {}})


#: Row (or row-name prefix) -> (passing outputs, doctored overrides).
FIXTURES = {
    "benchmark-": (
        {"run.txt": 'w  attempted 6, failed 0\n{"attempted": 6, "failed": 0}\n'},
        [{"run.txt": '{"attempted": 6, "failed": 1}\n'}],
    ),
    "rss-": (
        {"rss.txt": "padding 0 B   peak RSS 50.00 MiB\nw: spread 0.12 MiB over "
                    "8 environment sizes (limit 1.00 MiB): ok\n"},
        [{"rss.txt": "w: spread 2.00 MiB over 8 environment sizes "
                     "(limit 1.00 MiB): FAIL\n"}],
    ),
    "trapped-walks": (
        {"churn.json": _run_json({"walk.trapped": 73, "walk.hops": 2462776})},
        [{"churn.json": _run_json({"walk.trapped": 72, "walk.hops": 2462776})},
         {"churn.json": _run_json({"walk.trapped": 74, "walk.hops": 2462776})},
         {"churn.json": _run_json({"walk.trapped": 73, "walk.hops": 2462777})}],
    ),
    "sweep-lanes": (
        {"sweep.json": _run_json(LANES, SWEEP)},
        [{"sweep.json": _run_json(LANES, {DRAW: {"count": 72}})},
         {"sweep.json": _run_json(LANES, {**SWEEP, "x/kernel.run/draw": {"count": 4}})},
         {"sweep.json": _run_json({**LANES, "kernel.queries": 8097605}, SWEEP)},
         {"sweep.json": _run_json({**LANES, "kernel.rounds": 4321}, SWEEP)}],
    ),
    "content-refresh": (
        {"staleness.json": _run_json({}, figure={"series": {
            "stale hit fraction": [0.01, 0.2]}})},
        [{"staleness.json": _run_json({}, figure={"series": {
            "stale hit fraction": [0.01, 0.0]}})},
         {"staleness.json": _run_json({}, figure={"series": {
             "stale hit fraction": []}})}],
    ),
    "runner-flags": (
        {"adaptivity.json": json.dumps({"provenance": {"parameters": {
            "shift_at": 40.0, "window": 20.0}}})},
        [{"adaptivity.json": json.dumps({"provenance": {"parameters": {
            "shift_at": 60.0, "window": 20.0}}})},
         {"adaptivity.json": json.dumps({"provenance": {"parameters": {
             "shift_at": 40.0, "window": 10.0}}})}],
    ),
    "parallel": (
        {"sweep.json": _run_json({}), "sweep-1cpu.json": _run_json({})},
        [{"sweep.json": ""},
         {"sweep-1cpu.json": ""},
         {"sweep-1cpu.json": _run_json({}, figure={"series": {"a": [2.0]}})}],
    ),
    "single-path": (
        {"churn-first.json": _run_json({"kernel.runs": 3}),
         "churn-second.json": _run_json(FIGURE_HIT),
         "churn-third.json": _run_json(CHURN),
         "tracking-first.json": _run_json({"kernel.runs": 8}),
         "tracking-second.json": _run_json(FIGURE_HIT),
         "tracking-third.json": _run_json(TRACKING)},
        [{"churn-second.json": _run_json({"cache.store.replicate.miss": 1})},
         {"churn-second.json": _run_json({**FIGURE_HIT, "kernel.runs": 3})},
         {"tracking-second.json": _run_json(FIGURE_HIT, figure={"b": [2.0]})},
         {"churn-third.json": _run_json(
             {**CHURN, "cache.store.sweep_cell.miss": 1})},
         {"tracking-third.json": _run_json({"cache.store.sweep_cell.hit": 7})},
         {"churn-third.json": _run_json({**CHURN, "kernel.runs": 3})},
         {"tracking-third.json": _run_json(TRACKING, figure={"b": [2.0]})}],
    ),
    "resume": (
        {"replay.json": _replay(), "cells.txt": "3\n",
         "resume-1.json": _run_json({"cache.store.sweep_cell.hit": 3,
                                     "cache.store.sweep_cell.miss": 15}),
         "resume-2.json": _run_json(FIGURE_HIT)},
        [{"replay.json": _replay(events=0)},
         {"cells.txt": "0\n"},
         {"cells.txt": "18\n"},
         {"cells.txt": "4\n"},
         {"resume-1.json": _run_json({"cache.store.sweep_cell.miss": 18})},
         {"resume-2.json": _run_json({})},
         {"resume-2.json": _run_json({**FIGURE_HIT, "kernel.runs": 18})},
         {"resume-2.json": _run_json(FIGURE_HIT, figure={"b": [2.0]})}],
    ),
    "warm-lookup": (
        {"sweep-first.json": _lookup_json({"kernel.runs": 18}, "computed"),
         "sweep-second.json": _lookup_json(FIGURE_HIT, "store")},
        [{"sweep-second.json": _lookup_json(FIGURE_HIT, "store",
                                            series={"b": [2.0], "a": [1.0]})},
         {"sweep-second.json": _lookup_json(FIGURE_HIT, "store",
                                            series={"a": [1.5], "b": [2.0]})},
         {"sweep-second.json": _lookup_json(FIGURE_HIT, "computed")},
         {"sweep-second.json": _lookup_json({"kernel.runs": 18}, "store")}],
    ),
    "store-files": (
        {"sweep-cold.json": _lookup_json({}, "computed"),
         "sweep-warm.json": _lookup_json({}, "store"),
         "sweep-env.json": _lookup_json({}, "store"),
         "store.sqlite": "SQLite format 3"},
        [{"store.sqlite-wal": ""},
         {"store.sqlite-shm": ""},
         {"sweep-warm.json": _lookup_json({}, "computed")},
         {"sweep-env.json": _lookup_json({}, "computed")}],
    ),
    "live": (
        {"trace.json": _trace(TRACE), "events.jsonl": STREAM,
         "replay.json": _replay(), "sweep.json": _run_json({"sweep.cells": 18})},
        [{"trace.json": _trace([e for e in TRACE if e["pid"] == 2])},
         {"trace.json": _trace([e for e in TRACE if e["pid"] == 1])},
         {"trace.json": _trace(TRACE[:3])},
         {"trace.json": _trace(TRACE[:-1])},
         {"replay.json": _replay(cells=17)},
         {"replay.json": _replay(cells=0),
          "sweep.json": _run_json({"sweep.cells": 0})}],
    ),
    "examples": (
        {command.stdout: "ran\n" for command in smoke.EXAMPLES},
        [{smoke.EXAMPLES[-1].stdout: ""}],
    ),
}


def _fixture(name: str):
    return next(fixture for key, fixture in FIXTURES.items()
                if name == key or (key.endswith("-") and name.startswith(key)))


@pytest.mark.parametrize("row", smoke.SMOKES, ids=lambda row: row.name)
def test_check_passes_its_stub_and_rejects_each_doctored_copy(row):
    passing, doctored = _fixture(row.name)
    row.check(passing)
    assert doctored
    for override in doctored:
        with pytest.raises(Failed):
            row.check({**passing, **override})


def test_table_rows_are_named_once_and_every_shadowed_test_exists():
    names = [row.name for row in smoke.SMOKES]
    assert len(names) == len(set(names)) == len(smoke.BY_NAME)
    for row in smoke.SMOKES:
        assert row.why and row.commands
        assert all(c.argv[0] in ("runner", "python") for c in row.commands)
        if row.shadows:
            assert (ROOT / row.shadows.split("::")[0]).is_file(), row.shadows
    assert smoke.EXAMPLES, "no examples/*.py found"


# ----------------------------------------------------------------------
# the runner, on python -c stubs
# ----------------------------------------------------------------------
def _python(code: str, *args: str, **keywords) -> Command:
    return Command(("python", "-c", code, *args), **keywords)


def test_placeholders_resolve_in_the_work_directory_argv_and_env(tmp_path):
    command = _python(
        "import os, sys; print(sys.argv[1]); print(os.environ['WHERE'])",
        "trace:<a.json>", stdout="out.txt", env={"WHERE": "<b.sqlite>"},
    )
    smoke.run(command, tmp_path, tmp_path, smoke.clean_env(""))
    assert (tmp_path / "out.txt").read_text().splitlines() == [
        f"trace:{tmp_path / 'a.json'}", str(tmp_path / "b.sqlite")
    ]


def test_clean_env_drops_the_repro_switches(monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "/elsewhere.sqlite")
    monkeypatch.setenv("REPRO_OBS", "1")
    env = smoke.clean_env("src")
    assert env["PYTHONPATH"] == "src"
    assert not set(smoke.SWITCHES) & set(env)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity call")
def test_a_confined_command_runs_on_that_many_cpus(tmp_path):
    usable = sorted(os.sched_getaffinity(0))
    command = _python("import os; print(sorted(os.sched_getaffinity(0)))",
                      stdout="out.txt", cpus=1)
    smoke.run(command, tmp_path, tmp_path, smoke.clean_env(""))
    assert (tmp_path / "out.txt").read_text() == f"{usable[:1]}\n"
    assert sorted(os.sched_getaffinity(0)) == usable


def test_an_unexpected_exit_fails_with_the_stderr_tail(tmp_path):
    env = smoke.clean_env("")
    fails = "import sys; sys.stderr.write('boom'); sys.exit(3)"
    smoke.run(_python(fails, exit=3), tmp_path, tmp_path, env)
    with pytest.raises(Failed, match="exited 3, not 0: boom"):
        smoke.run(_python(fails), tmp_path, tmp_path, env)
    with pytest.raises(Failed, match="exited 0, not 1"):
        smoke.run(_python("pass", exit=1), tmp_path, tmp_path, env)


def test_sigint_once_the_watched_file_matches_and_no_exit_check_then(tmp_path):
    # Writes its lines in pieces, the match last, then waits for the
    # signal, and records how many pieces it had written when it came.
    writer = _python(
        "import sys, time\n"
        "log, written = open(sys.argv[1], 'w'), 0\n"
        "try:\n"
        "    for piece in ('done: 0\\nno', 'ise\\ndo', 'ne: 3\\n'):\n"
        "        log.write(piece); log.flush(); written += 1; time.sleep(0.1)\n"
        "    time.sleep(60)\n"
        "except KeyboardInterrupt:\n"
        "    open(sys.argv[2], 'w').write(str(written))\n"
        "    sys.exit(5)",
        "<log.txt>", "<flag>", interrupt_on=("log.txt", r"^done: [1-9]"),
    )
    smoke.run(writer, tmp_path, tmp_path, smoke.clean_env(""))
    assert (tmp_path / "flag").read_text() == "3"
    # One that exits before its file matches is held to its exit code.
    with pytest.raises(Failed, match="exited 4"):
        smoke.run(_python("raise SystemExit(4)", interrupt_on=("log.txt", "x")),
                  tmp_path, tmp_path, smoke.clean_env(""))


def test_a_failing_row_prints_the_tail_of_each_output_first(capsys):
    def never(outputs):
        smoke.require(False, "never")

    lines = "; ".join(f"print({n})" for n in range(35))
    row = Smoke("tail", "prints", (_python(lines, stdout="a.txt"),
                                   _python("print('x' * 500)", stdout="b.txt")),
                never)
    with pytest.raises(Failed, match="never"):
        smoke.run_row(row)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tail: a.txt"
    assert out[1:31] == [f"    {n}" for n in range(5, 35)]
    assert out[31:] == ["tail: b.txt", "    " + "x" * 200]
    smoke.run_row(Smoke("quiet", "passes", row.commands, lambda outputs: None))
    assert capsys.readouterr().out == ""


def test_example_commands_run_the_given_checkouts_examples(tmp_path):
    (tmp_path / "examples").mkdir()
    for name in ("b.py", "a.py", "notes.txt"):
        (tmp_path / "examples" / name).write_text("")
    assert [c.argv for c in smoke.example_commands(tmp_path)] == [
        ("python", "examples/a.py"), ("python", "examples/b.py")]
    assert smoke.BY_NAME["examples"].commands == smoke.EXAMPLES == (
        smoke.example_commands(ROOT))


def test_main_prints_one_verdict_per_row_and_exits_one_on_a_failure(
    monkeypatch, capsys
):
    def answer(outputs):
        smoke.require(outputs["n.txt"].strip() == "42", "answer", outputs["n.txt"])

    rows = (
        Smoke("good", "prints 42", (_python("print(42)", stdout="n.txt"),), answer),
        Smoke("bad", "prints 41", (_python("print(41)", stdout="n.txt"),), answer),
        Smoke("exit", "exits 2", (_python("raise SystemExit(2)"),), answer),
    )
    monkeypatch.setattr(smoke, "SMOKES", rows)
    monkeypatch.setattr(smoke, "BY_NAME", {row.name: row for row in rows})
    assert smoke.main(["good"]) == 0
    assert smoke.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "good", "0", "good", "bad:", "41", "bad", "exit", "2"
    ]
    assert lines[5].endswith("FAIL  Failed: answer: '41\\n'")
    assert "exited 2, not 0" in lines[6]
    assert smoke.main(["--list"]) == 0
    assert capsys.readouterr().out.split()[0::3] == ["good", "bad", "exit"]
    assert smoke.main(["nope"]) == 2


# ----------------------------------------------------------------------
# CI runs the table and nothing beside it
# ----------------------------------------------------------------------
def test_ci_runs_the_table_as_its_only_check_after_uninstalling_networkx():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tier1 = text[text.index("\n  tier1:"):text.index("\n  gates:")]
    after = tier1[tier1.index("Uninstall networkx"):]
    assert re.findall(r"^\s*run:\s*(.*)$", after, re.M) == [
        "python -m pip uninstall -y networkx", "python3 tools/smoke.py"
    ]
    for command in ("repro.experiments.runner", "benchmarks/e2e/run.py",
                    "rss_layout_check", "examples/"):
        assert command not in text, command
