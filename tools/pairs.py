#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, one table line a
workload.

    python3 tools/pairs.py --parent DIR --workload sim_event
    python3 tools/pairs.py --parent DIR --workload sweep_warm --seed 5
    python3 tools/pairs.py --parent DIR --workload sweep_cold sweep_pool

Runs the benchmark command of ``BENCHMARK.json`` (``benchmarks/e2e/run.py
--workload W --seed S --trace 0``) in this checkout (the change) and in
``DIR`` (the parent, e.g. a ``git archive`` of the parent commit), each
from its own checkout and unchanged, ``--pairs`` times each, the order
alternating from pair to pair (the parent first in the first pair), and
reads each run's last stdout line as its JSON result. For every
end-to-end metric of this checkout's ``BENCHMARK.json`` it prints the
parent's median [first quartile, third quartile] -> the change's median,
the pairs the change won (strictly better, by the metric's ``better``),
the change of the median and a verdict, all on one line:

    sim_event  s0 10p; wall 0.663[0.637,0.694]->0.662 6/10 (-0.1%) same; ...

The verdict, first match wins (``bound`` is the metric's relative bound
in ``BENCHMARK.json``, ``IQR`` the distance between the parent's
quartiles):

* ``gain``: the change won at least 9 of 10 pairs (ties count for
  neither) and its median is better than the parent's by more than IQR;
* ``worse``: the change's median is worse than the parent's by more than
  ``bound``;
* ``unresolved``: IQR is wider than ``bound`` of the parent's median, and
  not every change run beats every parent run;
* ``same`` otherwise.

Quartiles are ``statistics.quantiles(n=4)``'s, as in the benchmark's own
summaries. A run that reports ``"failed"`` above 0, or that ends without
a JSON line, is named on stderr; its pair is left out of the line.
Several workloads run one after the other, all pairs of one before the
next, each printing its line when its pairs are done.

After each table line comes the workload's work line: the parent/change
diff of its work counters, from one ``--profile --format json`` run per
side of the workload's own runner command (``benchmarks/e2e/workloads.py``
of this checkout, with its store set up as the benchmark sets it up, in a
scratch directory). Work is every obs counter but ``gc.*``, the
process's resource usage (``rusage.*``) and times (names ending ``_s``);
the line counts the equal ones and names each one that moved, ``-``
where a side has none:

    sim_event  work: 25 equal; cache.placement.hit -->3; cache.placement.miss -->1

Counters of a seeded run repeat exactly, so one run a side is the whole
reading: a timing verdict with its count beside it. A side whose run
fails is named on stderr and gets no work line. On a workload of more
than one process, a per-process cache's hits and misses split by which
worker drew which cell, so each ``cache.X.hit`` / ``cache.X.miss`` pair
is read as one ``cache.X.lookups`` total there, and the counters of
``PER_PROCESS``, which have no such total, are left out.

The two checkouts' paths should be equally long: the path is in each
run's environment and ``argv``, and ``sweep_cold``'s peak RSS steps by
~1 MiB with how those shift the heap's layout (a checkout one character
longer once read +1.5%, 0/10, where the same code at a path of equal
length read -0.2%). Paths of different lengths get a warning on stderr;
the pairs still run and every number is printed, but the verdict of a
metric that steps with the path (``peak_rss_mb``) reads ``unresolved
(paths differ)``.

Exit codes: 0; 1 when any run failed; 2 when a checkout has no benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "e2e" / "run.py"
WORKLOADS = Path("benchmarks") / "e2e" / "workloads.py"
#: End-to-end metrics that move with the length of the checkout's path.
PATH_SENSITIVE = frozenset({"peak_rss_mb"})
#: Work counters left out on a workload of several processes: each
#: process counts its own, so they move with which worker drew which
#: unit, not with the code (each worker builds the Zipf CDF of the
#: distributions it draws from, once: a pooled ``sweep --scale 8`` of one
#: commit read 3 to 5 builds).
PER_PROCESS = ("zipf.cdf.builds",)


def run_once(root: Path, command: list[str], workload: str, seed: int
             ) -> Optional[dict]:
    """One benchmark run in ``root``; its JSON result, or None."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) else None


def short_name(metric: str) -> str:
    """``wall_s`` -> ``wall``, ``peak_rss_mb`` -> ``rss``."""
    return metric.removeprefix("peak_").rsplit("_", 1)[0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(parent: list[float], change: list[float], lower: bool
            ) -> tuple[int, float, float, float, float]:
    """Pairs the change won (strictly better), the parent's first
    quartile, median and third quartile, and the change's median."""
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    q1, before, q3 = quartiles(parent)
    return won, q1, before, q3, statistics.median(change)


def verdict(parent: list[float], change: list[float], bound: float,
            lower: bool) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``same`` for one metric's
    paired ``parent`` and ``change`` readings (see the module docstring).
    """
    won, q1, before, q3, after = summary(parent, change, lower)
    sign = 1.0 if lower else -1.0  # sign * value: smaller is better
    if 10 * won >= 9 * len(parent) and sign * (before - after) > q3 - q1:
        return "gain"
    if sign * (after - before) > bound * abs(before):
        return "worse"
    if q3 - q1 > bound * abs(before) and (
        max(sign * c for c in change) >= min(sign * p for p in parent)
    ):
        return "unresolved"
    return "same"


def table_line(workload: str, seed: int, pairs: list[tuple[dict, dict]],
               metrics: list[dict], paths_differ: bool = False) -> str:
    """The pair-table line of ``pairs`` (parent, change) results;
    ``paths_differ`` when the checkouts' paths differ in length."""
    parts = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        won, q1, before, q3, after = summary(parent, change, lower)
        shift = (after / before - 1.0) * 100.0 if before else 0.0
        if paths_differ and name in PATH_SENSITIVE:
            told = "unresolved (paths differ)"
        else:
            told = verdict(parent, change, metric["bound"], lower)
        parts.append(
            f"{short_name(name)} {before:.3f}[{q1:.3f},{q3:.3f}]->{after:.3f} "
            f"{won}/{len(pairs)} ({shift:+.1f}%) {told}"
        )
    return f"{workload:<10} s{seed} {len(pairs)}p; " + "; ".join(parts)


def run_pairs(sides: dict[str, Path], command: list[str], workload: str,
              seed: int, count: int) -> tuple[list[tuple[dict, dict]], int]:
    """``count`` alternating pairs of ``workload``, the parent first in
    the first pair: the (parent, change) results of the pairs whose two
    runs both passed, and how many runs failed."""
    pairs: list[tuple[dict, dict]] = []
    failed = 0
    for index in range(count):
        order = ["parent", "change"]
        if index % 2:
            order.reverse()
        results = {}
        for side in order:
            result = run_once(sides[side], command, workload, seed)
            if result is None or result.get("failed", 1) > 0:
                failed += 1
                print(f"{workload} pair {index + 1}: the {side} run failed",
                      file=sys.stderr)
            else:
                results[side] = result
        if len(results) == 2:
            pairs.append((results["parent"], results["change"]))
    return pairs, failed


def load_workloads():
    """This checkout's ``benchmarks/e2e/workloads.py``, as a module."""
    spec = importlib.util.spec_from_file_location(
        "_pairs_workloads", ROOT / WORKLOADS
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def is_work(name: str) -> bool:
    """A work counter: not the collector's (``gc.*``), not resource usage
    (``rusage.*``), not a time."""
    return not name.startswith(("gc.", "rusage.")) and not name.endswith("_s")


def folded(counters: dict) -> dict:
    """``counters`` with each cache's ``cache.X.hit`` and ``cache.X.miss``
    summed into one ``cache.X.lookups``."""
    out: dict = {}
    for name, value in counters.items():
        stem, _, outcome = name.rpartition(".")
        if name.startswith("cache.") and outcome in ("hit", "miss"):
            name = f"{stem}.lookups"
            value += out.get(name, 0)
        out[name] = value
    return out


def work_counters(root: Path, workload, seed: int) -> Optional[dict]:
    """The work counters of one profiled run of ``workload``'s runner
    command in ``root`` (cache lookups folded and ``PER_PROCESS`` left
    out on a workload of several processes); None when the run fails."""
    runner = [sys.executable, "-m", "repro.experiments.runner"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        populate = workload.populate_argv(seed, work)
        if populate is not None:
            subprocess.run([*runner, *populate], cwd=root, env=env,
                           capture_output=True)
        proc = subprocess.run(
            [*runner, *workload.runner_argv(seed, work, "work"), "--profile"],
            cwd=root, env=env, capture_output=True, text=True,
        )
        result = workload.result_file(work, "work")
        try:
            text = result.read_text() if result is not None else proc.stdout
            counters = json.loads(text)["telemetry"]["counters"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
    work = {name: value for name, value in counters.items() if is_work(name)}
    if workload.processes == 1:
        return work
    return folded({name: value for name, value in work.items()
                   if name not in PER_PROCESS})


def _count(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return str(int(value)) if value == int(value) else repr(value)


def work_line(workload: str, parent: dict, change: dict) -> str:
    """The work-counter diff line of one workload."""
    names = sorted(set(parent) | set(change))
    moved = [
        f"{name} {_count(parent.get(name))}->{_count(change.get(name))}"
        for name in names if parent.get(name) != change.get(name)
    ]
    return "; ".join(
        [f"{workload:<10} work: {len(names) - len(moved)} equal", *moved]
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, nargs="+",
                        action="extend", help="one or more workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for side, root in sides.items():
        if not (root / RUN).is_file():
            print(f"no benchmark in the {side} checkout: {root / RUN}",
                  file=sys.stderr)
            return 2
    paths_differ = len(str(sides["parent"])) != len(str(ROOT))
    if paths_differ:
        print(f"warning: the parent path {sides['parent']} and the change "
              f"path {ROOT} differ in length; peak RSS can step with it",
              file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = load_workloads()
    failed = 0
    for workload in args.workload:
        pairs, missed = run_pairs(sides, spec["command"], workload,
                                  args.seed, args.pairs)
        failed += missed
        if pairs:
            print(table_line(workload, args.seed, pairs, spec["end_to_end"],
                             paths_differ),
                  flush=True)
        counters = {}
        for side in ("parent", "change"):
            counters[side] = work_counters(
                sides[side], workloads.by_name(workload), args.seed
            )
            if counters[side] is None:
                failed += 1
                print(f"{workload} work: the {side} run failed",
                      file=sys.stderr)
        if None not in counters.values():
            print(work_line(workload, counters["parent"], counters["change"]),
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
