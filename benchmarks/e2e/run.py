"""The repo benchmark: five cold-CLI workloads, measured from outside.

    python3 benchmarks/e2e/run.py --workload sweep_cold --seed 0 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --out A.json          # all five, reps interleaved
    python3 benchmarks/e2e/run.py --trace 1             # the traced per-layer pass
    python3 benchmarks/e2e/run.py diff A.json B.json
    python3 benchmarks/e2e/run.py repeatability A.json B.json C.json

Every metric is printed by name with its unit, every rep's output is
checked, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (for several workloads:
``{"workloads": {name: that object}}``). See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import cold  # noqa: E402
import diff  # noqa: E402
import outputs  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Workload, by_name  # noqa: E402

REPO_ROOT = cold.REPO_ROOT
BENCH_DIR = REPO_ROOT / ".bench_e2e"
EXPECTED = HERE / "expected.json"
#: A single-workload run must end within the driver's 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
HARNESS_UNITS = {
    "startup.import_s": "s",
    "parallel.speedup": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "machine.ref_s": "s",
    "machine.ref_spread": "ratio",
}
PER_LAYER_UNITS = {**layers.LAYER_METRICS, **HARNESS_UNITS}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


@dataclass
class Outcome:
    """What one workload's cold reps and/or traced passes produced."""

    workload: Workload
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, Any] = field(default_factory=dict)
    first_figure: Optional[outputs.Figure] = None

    def fail(self, what: str, count: bool = True) -> None:
        self.failures.append(f"{self.workload.name}: {what}")
        if count:
            self.failed += 1

    def slowdown_spread(self) -> float:
        slowdowns = self.samples["slowdown"]
        return (max(slowdowns) - min(slowdowns)) / min(slowdowns)

    def as_json(self) -> dict[str, Any]:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in UNITS.items() if name in self.metrics
            },
        }


class Session:
    """One invocation: work dir, child environment, deadline, expectations."""

    def __init__(self, seed: int, seconds: float, workloads: list[Workload],
                 use_expected: bool = True, bench_dir: Path = BENCH_DIR) -> None:
        self.seed = seed
        self.seconds = seconds
        self.outcomes = [Outcome(workload) for workload in workloads]
        self.deadline = perf_counter() + RUN_DEADLINE_S * len(workloads)
        bench_dir.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=bench_dir))
        self.env = cold.child_env(bench_dir / "pycache")
        #: None while recording a new expected.json (nothing to compare with).
        self.expected: Optional[dict[str, Any]] = (
            json.loads(EXPECTED.read_text(encoding="utf-8")) if use_expected else None
        )
        self._logs = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, command: list[str], label: str, processes: int = 1) -> cold.Rep:
        self._logs += 1
        timeout = max(1.0, self.deadline - perf_counter())
        return cold.spawn(
            command, self.env, self.work / f"{self._logs:03d}-{label}",
            cold.cpus_for(processes), timeout=min(timeout, cold.REP_TIMEOUT_S),
        )

    def runner(self, workload: Workload, argv: list[str], label: str) -> cold.Rep:
        return self.spawn(
            [sys.executable, "-m", "repro.experiments.runner", *argv],
            f"{workload.name}-{label}", workload.processes,
        )

    def import_probe(self, label: str) -> cold.Rep:
        return self.spawn([sys.executable, "-c", cold.IMPORT_PROBE], label)

    def build(self) -> None:
        """One untimed import: compiles the bytecode the first time a
        checkout is used (the benchmark's build) and warms the file cache
        every time, so no probe or rep does either."""
        rep = self.import_probe("build")
        if rep.exit_code != 0:
            raise SystemExit(f"cannot import the program:\n{rep.stderr_tail()}")

    # -- output check ---------------------------------------------------

    def check(self, outcome: Outcome, rep: cold.Rep, label: str,
              result_file: Optional[Path], count: bool = True) -> bool:
        """Fail ``rep`` unless it exited 0 with the right figure; ``count``
        says whether it is one of the attempted operations."""
        workload = outcome.workload
        if rep.exit_code != 0:
            outcome.fail(
                f"{label}: exit code {rep.exit_code}\n{rep.stderr_tail()}", count
            )
            return False
        source = result_file or rep.stdout
        try:
            figure = outputs.figure_of(source.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(f"{label}: unreadable result ({exc!r})", count)
            return False
        problems = outputs.range_problems(figure)
        if self.expected is not None:
            same_seed = self.seed == self.expected["seed"]
            problems += outputs.compare_figures(
                figure, self.expected["workloads"][workload.name],
                only=None if same_seed else workload.seed_free_series,
            )
        if outcome.first_figure is None:
            outcome.first_figure = figure
        else:
            problems += [
                "differs from this run's first result: " + line
                for line in outputs.compare_figures(
                    figure, outcome.first_figure, rel_tol=0.0
                )
            ]
        if problems:
            outcome.fail(f"{label}: " + "; ".join(problems[:4]), count)
        return not problems

    def check_groups(self) -> None:
        """Workloads of one figure group must have produced equal figures
        (jobs and store never change a result)."""
        first: dict[str, Outcome] = {}
        for outcome in self.outcomes:
            group = outcome.workload.figure_group
            if not group or outcome.first_figure is None:
                continue
            base = first.setdefault(group, outcome)
            if base is outcome:
                continue
            problems = outputs.compare_figures(
                outcome.first_figure, base.first_figure, rel_tol=0.0
            )
            if problems:
                outcome.fail(
                    f"figure differs from {base.workload.name}: "
                    + "; ".join(problems[:4]),
                    count=False,
                )

    # -- cold reps (tracing off) ----------------------------------------

    def populate(self, outcome: Outcome) -> Optional[cold.Rep]:
        """Fill a warm workload's store (part of its set-up)."""
        workload = outcome.workload
        argv = workload.populate_argv(self.seed, self.work)
        if argv is None:
            return None
        rep = self.runner(workload, argv, "populate")
        self.check(outcome, rep, "populating run", None, count=False)
        return rep

    def set_up(self, outcome: Outcome) -> None:
        """Everything before the first timed rep; ``setup_s`` is its cost:
        the start-up floor (median of the import probes: a probe is a
        dozen ticks long, so one of five may be divided by a misread
        slowdown, and the minimum would pick that one) plus, for a warm
        workload, the run that fills its store."""
        probes = [self.import_probe("probe") for _ in range(cold.IMPORT_PROBES)]
        if any(probe.exit_code != 0 for probe in probes):
            outcome.fail("import probe failed", count=False)
        outcome.samples["import_probe_s"] = [
            p.at_reference_speed(p.wall_s) for p in probes
        ]
        setup_s = statistics.median(outcome.samples["import_probe_s"])
        populating = self.populate(outcome)
        if populating is not None:
            setup_s += populating.at_reference_speed(populating.wall_s)
        outcome.metrics["setup_s"] = setup_s

    def cold_rep(self, outcome: Outcome) -> None:
        workload = outcome.workload
        label = f"rep{outcome.attempted}"
        rep = self.runner(
            workload, workload.runner_argv(self.seed, self.work, label), label
        )
        outcome.attempted += 1
        self.check(outcome, rep, label, workload.result_file(self.work, label))
        for name, value in (
            ("wall_s", rep.at_reference_speed(rep.wall_s)),
            ("cpu_s", rep.at_reference_speed(rep.cpu_s)),
            ("peak_rss_mb", rep.peak_rss_mb),
            ("raw_wall_s", rep.wall_s),
            ("slowdown", rep.slowdown),
        ):
            outcome.samples.setdefault(name, []).append(value)

    def measure_cold(self) -> None:
        for outcome in self.outcomes:
            self.set_up(outcome)
        # Round-robin, so a slow phase of the machine is spread over all
        # workloads of the invocation instead of landing on one.
        for rep in range(max(o.workload.reps for o in self.outcomes)):
            for outcome in self.outcomes:
                if rep < outcome.workload.reps:
                    self.cold_rep(outcome)
        for outcome in self.outcomes:
            samples = outcome.samples
            outcome.metrics.update(
                wall_s=min(samples["wall_s"]),
                cpu_s=min(samples["cpu_s"]),
                peak_rss_mb=max(samples["peak_rss_mb"]),
            )

    # -- traced in-process pass -----------------------------------------

    def in_process(self, outcome: Outcome, workload: Workload, label: str,
                   traced: bool) -> dict[str, Any]:
        """One fresh interpreter running ``workload`` through
        ``runner.main(argv)`` under layers.py, with or without the
        wrappers; every time it reports comes back at reference speed."""
        name = f"{outcome.workload.name}-{label}"
        result = self.work / f"{name}.json"
        rep = self.spawn(
            [sys.executable, layers.__file__, str(result),
             "1" if traced else "0", "--",
             *workload.runner_argv(self.seed, self.work, name)],
            name, workload.processes,
        )
        outcome.attempted += 1
        outcome.samples.setdefault("slowdown", []).append(rep.slowdown)
        if not self.check(outcome, rep, label,
                          workload.result_file(self.work, name)):
            return {}
        measured = json.loads(result.read_text(encoding="utf-8"))
        for key in ("import_s", "main_s"):
            measured[key] = rep.at_reference_speed(measured[key])
        if traced:
            metrics = measured["metrics"]
            for key, unit in layers.LAYER_METRICS.items():
                if unit == "s":
                    metrics[key] = rep.at_reference_speed(metrics[key])
                elif unit == "1/s":
                    metrics[key] *= rep.slowdown
            measured["layer_self_s"] = {
                layer: rep.at_reference_speed(seconds)
                for layer, seconds in measured["layer_self_s"].items()
            }
        return measured

    def measure_traced(self) -> None:
        for outcome in self.outcomes:
            workload = outcome.workload
            self.populate(outcome)
            passes = [
                self.in_process(outcome, workload, "traced", True),
                self.in_process(outcome, workload, "untraced", False),
            ]
            if workload.speedup_base:
                passes.append(self.in_process(
                    outcome, by_name(workload.speedup_base), "base", True
                ))
            if not all(passes):
                continue
            traced_pass, untraced_pass = passes[:2]
            metrics = dict(traced_pass["metrics"])
            run_s = metrics["experiments.run_s"]
            run_many_s = metrics["parallel.run_many_s"]
            metrics.update({
                "startup.import_s": min(p["import_s"] for p in passes),
                "parallel.speedup": (
                    passes[2]["metrics"]["parallel.run_many_s"] / run_many_s
                    if workload.speedup_base and run_many_s > 0 else 0.0
                ),
                "trace.coverage": (
                    1.0 - metrics["experiments.self_s"] / run_s if run_s > 0 else 0.0
                ),
                "trace.overhead_ratio": (
                    traced_pass["main_s"] / untraced_pass["main_s"]
                ),
                "machine.ref_s": (
                    min(outcome.samples["slowdown"]) * cold.NOMINAL_TICK_S
                ),
                "machine.ref_spread": outcome.slowdown_spread(),
            })
            outcome.metrics.update(metrics)
            outcome.samples["layer_self_s"] = traced_pass["layer_self_s"]


def print_cold(outcome: Outcome, seconds: float) -> None:
    name = outcome.workload.name
    samples = outcome.samples
    for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
        stats = cold.summary(samples[metric])
        print(
            f"{name:<11} {metric:<12} {outcome.metrics[metric]:10.4f} "
            f"{UNITS[metric]:<3} "
            f"({'max' if metric == 'peak_rss_mb' else 'min'} of {stats['n']} reps; "
            f"median {stats['median']:.4f}, q1 {stats['q1']:.4f}, "
            f"q3 {stats['q3']:.4f})"
        )
    probes = cold.summary(samples["import_probe_s"])
    print(
        f"{name:<11} {'setup_s':<12} {outcome.metrics['setup_s']:10.4f} s   "
        f"(import probe: median {probes['median']:.4f}, min {probes['min']:.4f} "
        f"of {probes['n']})"
    )
    rep_seconds = sum(samples["raw_wall_s"])
    print(
        f"{name:<11} {'machine':<12} {min(samples['slowdown']):10.4f} x   "
        f"(slowdown against reference speed, least of the reps; spread "
        f"{outcome.slowdown_spread():.1%}; reps took {rep_seconds:.1f} s as "
        f"measured, fastest {min(samples['raw_wall_s']):.4f} s)"
    )
    if rep_seconds > seconds:
        print(
            f"OVER BUDGET {name}: the reps took {rep_seconds:.1f} s, "
            f"--seconds allows {seconds:g} s", file=sys.stderr,
        )


def print_traced(outcome: Outcome) -> None:
    for metric, unit in PER_LAYER_UNITS.items():
        if metric in outcome.metrics:
            value = outcome.metrics[metric]
            shown = f"{value:,.0f}" if unit in ("count", "bytes") else f"{value:.6f}"
            print(f"{outcome.workload.name:<11} {metric:<28} {shown:>16} {unit}")


def write_expected(outcomes: list[Outcome], seed: int) -> None:
    payload = {
        "seed": seed,
        "workloads": {o.workload.name: o.first_figure for o in outcomes},
    }
    EXPECTED.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}", file=sys.stderr)


def write_out(out: Path, session: Session, trace: str,
              results: dict[str, Any]) -> None:
    """The result file ``diff`` and ``repeatability`` read, with every
    sample; a traced pass's raw spans go beside it."""
    detail = {
        o.workload.name: {"samples": o.samples, "failures": o.failures}
        for o in session.outcomes
    }
    out.write_text(
        json.dumps({
            "seed": session.seed, "seconds": session.seconds, "trace": trace,
            "workloads": results, "detail": detail,
        }, indent=1) + "\n",
        encoding="utf-8",
    )
    for name in results:
        spans = layers.spans_file(session.work / f"{name}-traced.json")
        if spans.exists():
            shutil.copy(spans, out.with_name(f"{out.stem}.{name}.spans.json"))


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if argv[:1] == ["diff"]:
        return diff.diff_main(argv[1:], spec)
    if argv[:1] == ["repeatability"]:
        return diff.repeatability_main(argv[1:], spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *(w.name for w in WORKLOADS)])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="what a workload's reps may take; the number of "
                        "reps is fixed, an overrun is reported on stderr")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", type=Path, help="write the full result here")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's figures as expected.json")
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    chosen = list(WORKLOADS) if args.workload == "all" else [by_name(args.workload)]
    wanted = set(END_TO_END_UNITS if args.trace == "0" else PER_LAYER_UNITS)
    session = Session(args.seed, args.seconds, chosen,
                      use_expected=not args.write_expected)
    try:
        session.build()
        if args.trace == "0":
            session.measure_cold()
            for outcome in session.outcomes:
                print_cold(outcome, args.seconds)
        else:
            session.measure_traced()
            for outcome in session.outcomes:
                print_traced(outcome)
        session.check_groups()
        if args.write_expected:
            write_expected(session.outcomes, args.seed)
        results = {}
        for outcome in session.outcomes:
            if set(outcome.metrics) != wanted:
                outcome.fail("a pass failed, so some metrics are missing",
                             count=False)
            print(f"{outcome.workload.name:<11} attempted {outcome.attempted}, "
                  f"failed {outcome.failed}")
            for failure in outcome.failures:
                print(f"FAILED {failure}", file=sys.stderr)
            results[outcome.workload.name] = outcome.as_json()
        if args.out is not None:
            write_out(args.out, session, args.trace, results)
    finally:
        session.close()
    if len(chosen) == 1:
        print(json.dumps(results[chosen[0].name]))
    else:
        print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
