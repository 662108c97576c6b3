#!/usr/bin/env python3
"""The smoke table: what the repo promises of its installed CLI.

One table, :data:`SMOKES`. A row runs its commands in a fresh work
directory, then its ``check`` over what they wrote, which raises with
the offending values. CI runs every row after tier-1, with ``networkx``
uninstalled; ``shadows`` names a tier-1 test a row repeats in-process
(the row stays: it is the only run of the installed CLI without it).

    python3 tools/smoke.py --list    # each row's name and why
    python3 tools/smoke.py NAME...   # the named rows
    python3 tools/smoke.py           # every row (~2 min on 2 CPUs); exit 1 on a FAIL

In a command, ``runner`` is ``python -m repro.experiments.runner`` and
``python`` the interpreter; ``<name>`` in a token or an env value is the
file ``name`` in the work directory. A command SIGINT-ed once its
``interrupt_on`` file shows a line matching its pattern is not held to
its exit code.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping

ROOT = Path(__file__).resolve().parents[1]
#: Settings a caller's shell may hold that would change what a row runs.
SWITCHES = ("REPRO_STORE", "REPRO_OBS", "REPRO_OBS_EVENTS")
_PLACEHOLDER = re.compile(r"<([^<>]+)>")
#: ``python -c REPLAY EVENTS``: replay a flight-recorder file, print how
#: many events it held and the snapshot they rebuild, as JSON.
REPLAY = (
    "import json, sys; from repro import obs; from repro.obs import events; "
    "recovered = events.read_events(sys.argv[1]); "
    "print(json.dumps({'events': len(recovered), **obs.replay(recovered)}))"
)
#: ``python -c CELLS STORE``: how many sweep cells the store holds.
CELLS = (
    "import sqlite3, sys; print(sqlite3.connect(sys.argv[1]).execute("
    "\"SELECT COUNT(*) FROM artifacts WHERE kind = 'sweep_cell'\").fetchone()[0])"
)
#: A ``parallel.jobs`` progress event past 0: a kernel unit's cells are saved.
FINISHED_CELL = r'"name":"parallel\.jobs","done":[1-9]'
SMALL = ("--scale", "0.02", "--duration", "60")
Outputs = Mapping[str, str]


class Failed(Exception):
    """A command exited unexpectedly, or a check found a broken promise."""


def require(ok: object, what: str, *values: object) -> None:
    if not ok:
        raise Failed(f"{what}: {', '.join(map(repr, values))}")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    #: File in the work directory that receives stdout ("": discarded).
    stdout: str = ""
    env: Mapping[str, str] = field(default_factory=dict)
    exit: int = 0
    #: ``(name, pattern)``: SIGINT the command once a line of the work
    #: file ``name`` matches the regular expression ``pattern``.
    interrupt_on: tuple[str, str] | None = None


@dataclass(frozen=True)
class Smoke:
    name: str
    why: str
    commands: tuple[Command, ...]
    check: Callable[[Outputs], None]
    shadows: str = ""


def clean_env(pythonpath: str) -> dict[str, str]:
    """This process's environment without :data:`SWITCHES`, on ``pythonpath``."""
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    env["PYTHONPATH"] = pythonpath
    return env


def run(command: Command, root: Path, work: Path, env: Mapping[str, str]) -> None:
    """Run ``command`` from ``root`` with ``<name>`` in ``work``; raise
    :class:`Failed` on an exit other than ``command.exit``."""

    def resolve(token: str) -> str:
        return _PLACEHOLDER.sub(lambda m: str(work / m.group(1)), token)

    program, *rest = command.argv
    head = {"runner": [sys.executable, "-m", "repro.experiments.runner"],
            "python": [sys.executable]}[program]
    env = {**env, **{k: resolve(v) for k, v in command.env.items()}}
    stdout = work / command.stdout if command.stdout else os.devnull
    with open(stdout, "w") as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen([*head, *map(resolve, rest)], cwd=root,
                                 env=env, stdout=out, stderr=err)
        if command.interrupt_on is not None:
            name, pattern = command.interrupt_on
            if shows(child, work / name, re.compile(pattern)):
                child.send_signal(signal.SIGINT)
                child.wait()
                return
        status = child.wait()
        if status != command.exit:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
            raise Failed(f"{' '.join(command.argv)[:80]} exited {status}, "
                         f"not {command.exit}: {' | '.join(tail)}")


def shows(child: subprocess.Popen, path: Path, pattern: re.Pattern) -> bool:
    """Whether a line of ``path`` matches ``pattern`` while ``child``
    runs; reads only what was appended since the last look."""
    offset, partial = 0, ""
    while child.poll() is None:
        if path.is_file():
            with open(path, errors="replace") as handle:
                handle.seek(offset)
                *lines, partial = (partial + handle.read()).split("\n")
                offset = handle.tell()
            if any(pattern.search(line) for line in lines):
                return True
        time.sleep(0.005)
    return False


def run_row(row: Smoke) -> None:
    """Every command of ``row``, then its check over the files they
    wrote; raises :class:`Failed`. A failing row first prints the last
    30 lines of each stdout file, each cut at 200 characters."""
    env = clean_env(str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=f"smoke-{row.name}-") as scratch:
        work = Path(scratch)
        try:
            for command in row.commands:
                run(command, ROOT, work, env)
            row.check({path.name: path.read_text(errors="replace")
                       for path in work.iterdir() if path.is_file()})
        except Exception:
            for name in dict.fromkeys(c.stdout for c in row.commands if c.stdout):
                if (work / name).is_file():
                    tail = (work / name).read_text(errors="replace").splitlines()
                    print(f"{row.name}: {name}",
                          *(f"    {line[:200]}" for line in tail[-30:]), sep="\n")
            raise


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def benchmark_passed(outputs: Outputs) -> None:
    last = json.loads(outputs["run.txt"].strip().splitlines()[-1])
    require(last["failed"] == 0, "benchmark run failed", last["failed"])


def rss_flat(outputs: Outputs) -> None:
    verdict = outputs["rss.txt"].strip().splitlines()[-1]
    require(verdict.endswith(": ok"), "peak RSS moves with heap layout", verdict)


def trapped_walks(outputs: Outputs) -> None:
    seen = json.loads(outputs["churn.json"])["telemetry"]["counters"]
    require(seen["walk.trapped"] == 73, "walk.trapped", seen["walk.trapped"])
    require(seen["walk.hops"] == 2462776, "walk.hops", seen["walk.hops"])


def sweep_lanes(outputs: Outputs) -> None:
    telemetry = json.loads(outputs["sweep.json"])["telemetry"]
    draw = [span["count"] for path, span in telemetry["spans"].items()
            if path.endswith("/kernel.run/draw")]
    require(draw == [24], "kernel.run/draw counts", draw)
    seen = telemetry["counters"]
    require(seen["kernel.queries"] == 8097606, "kernel.queries",
            seen["kernel.queries"])
    require(seen["kernel.rounds"] == 4320, "kernel.rounds", seen["kernel.rounds"])


def content_refresh(outputs: Outputs) -> None:
    stale = json.loads(outputs["staleness.json"])["figure"]["series"][
        "stale hit fraction"]
    require(stale and all(f > 0 for f in stale), "stale hit fractions", stale)


def runner_flags(outputs: Outputs) -> None:
    parameters = json.loads(outputs["adaptivity.json"])["provenance"]["parameters"]
    require(parameters["shift_at"] == 40.0, "shift_at", parameters.get("shift_at"))
    require(parameters["window"] == 20.0, "window", parameters.get("window"))


def parallel(outputs: Outputs) -> None:
    require(outputs["sweep.json"].strip(), "--jobs 2 sweep printed nothing")


def single_path(outputs: Outputs) -> None:
    for name, cells in (("churn", 3), ("tracking", 8)):
        first, second = (json.loads(outputs[f"{name}-{n}.json"])
                         for n in ("first", "second"))
        seen = second["telemetry"]["counters"]
        misses = seen.get("cache.store.sweep_cell.miss", 0)
        require(misses == 0, f"{name} rerun missed", misses)
        hits = seen.get("cache.store.sweep_cell.hit")
        require(hits == cells, f"{name} rerun hits, not {cells}", hits)
        require("kernel.runs" not in seen, f"{name} rerun ran kernels",
                seen.get("kernel.runs"))
        require(first["figure"] == second["figure"], f"{name} rerun diverged")


def resume(outputs: Outputs) -> None:
    recovered = json.loads(outputs["replay.json"])["events"]
    require(recovered > 0, "recording run left no recoverable events", recovered)
    saved = int(outputs["cells.txt"])
    require(0 < saved < 18, "interrupted sweep saved not some of 18 cells", saved)
    one, two = (json.loads(outputs[f"resume-{n}.json"]) for n in (1, 2))
    seen = two["telemetry"]["counters"]
    misses = seen.get("cache.store.sweep_cell.miss", 0)
    require(misses == 0, "warm rerun recomputed cells", misses)
    hits = seen.get("cache.store.sweep_cell.hit", 0)
    require(hits > 0, "warm rerun loaded nothing from the store", hits)
    require(one["figure"] == two["figure"], "resumed sweep diverged")


def live(outputs: Outputs) -> None:
    events = json.loads(outputs["trace.json"])["traceEvents"]
    lanes = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    workers = {pid for pid, name in lanes.items() if name.startswith("worker-")}
    require("main" in lanes.values(), "no main lane in the trace", lanes)
    require(workers, "no worker lanes in the trace", lanes)
    slices = {e["pid"] for e in events if e["ph"] == "X"}
    require(workers <= slices, "worker lanes carry no slices", workers - slices)
    replayed = json.loads(outputs["replay.json"])["counters"].get("sweep.cells")
    reported = json.loads(outputs["sweep.json"])["telemetry"]["counters"][
        "sweep.cells"]
    require(replayed == reported > 0, "replayed vs reported sweep.cells",
            replayed, reported)


def examples_ran(outputs: Outputs) -> None:
    silent = [c.argv[1] for c in EXAMPLES if not outputs[c.stdout].strip()]
    require(EXAMPLES and not silent, "examples that printed nothing", silent)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def cmd(*argv: str, **keywords) -> Command:
    return Command(argv, **keywords)


def example_commands(root: Path) -> tuple[Command, ...]:
    """One run of each ``examples/*.py`` of the checkout ``root``."""
    return tuple(cmd("python", f"examples/{path.name}", stdout=f"{path.name}.txt")
                 for path in sorted((root / "examples").glob("*.py")))


EXAMPLES = example_commands(ROOT)


#: Benchmark workload, the ``--trace`` argument CI has always given it,
#: and what a moved figure would mean.
BENCHMARKS = (
    ("churn_cold", (), "~2.5M k-walker hops, 97% charged in closed form for "
     "73 trapped searches, and the calibration they feed"),
    ("sim_event", ("--trace", "0"), "the event substrate: a stale membership "
     "view or a sweep that sums before it adds moves a msg/s"),
    ("sweep_warm", ("--trace", "0"), "closed-form planning (the cached Eq. 4 "
     "solve) and 18/18 store hits"),
    ("sweep_cold", ("--trace", "0"), "8.1M ranks through the guide-table draw "
     "and the kernel's spans of rounds"),
    ("sweep_pool", ("--trace", "0"), "the same 18 cells through run_many's "
     "pool: fork, pickle and merge"),
)
STORE = {"REPRO_STORE": "<store.sqlite>"}
SWEEP = ("runner", "sweep", *SMALL, "--format", "json")
#: A sweep whose kernel units run long enough (~50 ms each, six of them)
#: for a SIGINT sent after the first to land before the last.
RESUMED = ("runner", "sweep", "--scale", "8", "--format", "json")
JSON = ("--profile", "--format", "json")

SMOKES: tuple[Smoke, ...] = (
    *(Smoke(f"benchmark-{w}", f"expected.json's figure at rel 1e-9: {why}",
            (cmd("python", "benchmarks/e2e/run.py", "--workload", w, "--seed",
                 "0", *trace, stdout="run.txt"),), benchmark_passed)
      for w, trace, why in BENCHMARKS),
    *(Smoke(f"rss-{w}", "peak RSS, bounded at 2% by the benchmark, must not "
            "move > 1 MiB with the environment's size alone",
            (cmd("python", "tools/rss_layout_check.py", "--workload", w,
                 stdout="rss.txt"),), rss_flat)
      for w in ("sweep_cold", "sweep_pool", "churn_cold", "sweep_warm",
                "sim_event")),
    Smoke("trapped-walks", "a trap check that stops firing keeps churn_cold's "
          "figure and only costs time; its counters show it",
          (cmd("runner", "churn", "--engine", "vectorized", "--duration", "120",
               "--scale", "0.02", "--seed", "0", "--no-store", *JSON,
               stdout="churn.json"),), trapped_walks),
    Smoke("sweep-lanes", "a sweep's six keyTtl columns share one stream: 24 "
          "draw blocks, not 72; queries and rounds count every cell",
          (cmd("runner", "sweep", "--scale", "8", "--jobs", "1", "--seed", "0",
               "--no-store", *JSON, stdout="sweep.json"),), sweep_lanes),
    Smoke("content-refresh", "a stale index hit needs a content refresh, so "
          "stale fractions above 0 show refresh_all ran through the CLI",
          (cmd("runner", "staleness", "--engine", "event", "--scale", "0.02",
               "--duration", "250", "--format", "json",
               stdout="staleness.json"),), content_refresh),
    Smoke("runner-flags", "--shift-at/--window reach adaptivity's provenance; "
          "a flag no requested experiment accepts exits 1",
          (cmd("runner", "adaptivity", "--engine", "vectorized", "--scale",
               "0.02", "--duration", "120", "--shift-at", "40", "--window",
               "20", "--no-store", "--format", "json", stdout="adaptivity.json"),
           cmd("runner", "sim", "--workload", "rank-swap", "--no-store", exit=1)),
          runner_flags, "tests/experiments/test_registry_surface.py"),
    Smoke("parallel", "the process-pool path through the CLI: a --jobs 2 "
          "sweep and a replicated sim",
          (cmd(*SWEEP, "--jobs", "2", stdout="sweep.json"),
           cmd("runner", "sim", "--engine", "vectorized", *SMALL,
               "--replicates", "2", "--jobs", "2")),
          parallel, "tests/experiments/test_execution_paths.py"),
    Smoke("single-path", "every vectorized cell is persisted, so a rerun on "
          "one REPRO_STORE runs no kernel; model workloads' keys hold math.inf",
          tuple(command for n in ("first", "second") for command in (
              cmd("runner", "churn", "--engine", "vectorized", *SMALL, *JSON,
                  stdout=f"churn-{n}.json", env=STORE),
              cmd("runner", "adaptivity-tracking", "--scale", "0.02",
                  "--duration", "120", *JSON, stdout=f"tracking-{n}.json",
                  env=STORE))),
          single_path, "tests/experiments/test_execution_paths.py"),
    Smoke("resume", "a sweep SIGINT-ed after its first finished cells leaves "
          "a replayable stream and some cells saved; reruns on its store "
          "recompute only the rest, then nothing",
          (cmd(*RESUMED, interrupt_on=("events.jsonl", FINISHED_CELL), env={
              **STORE, "REPRO_OBS": "1", "REPRO_OBS_EVENTS": "<events.jsonl>"}),
           cmd("python", "-c", REPLAY, "<events.jsonl>", stdout="replay.json"),
           cmd("python", "-c", CELLS, "<store.sqlite>", stdout="cells.txt"),
           cmd(*RESUMED, "--profile", stdout="resume-1.json", env=STORE),
           cmd(*RESUMED, "--profile", stdout="resume-2.json", env=STORE)),
          resume, "tests/store/test_resume.py"),
    Smoke("live", "--progress/--trace-out/--events-out on a pooled sweep: a "
          "lane per worker, and a replay equal to --profile",
          (cmd(*SWEEP, "--jobs", "2", "--no-store", "--progress", "--trace-out",
               "<trace.json>", "--events-out", "<events.jsonl>", "--profile",
               stdout="sweep.json"),
           cmd("python", "-c", REPLAY, "<events.jsonl>", stdout="replay.json")),
          live, "tests/obs/test_live_export.py"),
    Smoke("examples", "the examples are executable documentation; each must run",
          EXAMPLES, examples_ran),
)
BY_NAME = {row.name: row for row in SMOKES}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--list"]:
        for row in SMOKES:
            print(f"{row.name:<22} {row.why}")
        return 0
    unknown = [name for name in args if name not in BY_NAME]
    if unknown:
        print(f"smoke: no row {', '.join(unknown)} (--list names them)",
              file=sys.stderr)
        return 2
    failed = 0
    began = perf_counter()
    for row in [BY_NAME[name] for name in args] or SMOKES:
        started = perf_counter()
        try:
            run_row(row)
            verdict = "ok"
        except Exception as error:  # a check that cannot read its output fails
            failed += 1
            verdict = f"FAIL  {type(error).__name__}: {error}"
        print(f"{row.name:<22} {perf_counter() - started:6.1f} s  {verdict}",
              flush=True)
    print(f"{failed} failed, {perf_counter() - began:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
