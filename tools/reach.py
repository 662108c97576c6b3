#!/usr/bin/env python3
"""Which functions under ``src/repro`` does no experiment reach, and
which of their parameters does no call ever set?

Runs every command of :data:`ROWS` (the runner on every experiment,
engine, format and workload preset, trace replay from JSON and JSONL, a
store cold then warm, the telemetry flags, ``gates.py``'s measures), the
commands of ``tools/smoke.py``'s table and the five benchmark commands'
traced passes (``benchmarks/e2e/layers.py ... 1 -- <runner argv>``) under a
``sitecustomize`` profile hook, in every process — pool workers
included (a forked worker appends to its own files; a spawned one loads
the ``sitecustomize`` again). Then it prints two inventories.

**Unreached defs.** The hook records each code object whose file is
under ``src/repro`` the first time it is called. Every ``def`` of
``src/repro`` whose code object no process called is listed, grouped by
module, ending ``unreached N of M defs, L lines``. A def is keyed by the
line its code object starts on: the ``def`` line, or its first
decorator's. Nested defs count on their own; lambdas, comprehensions
and class bodies do not count.

**The knob census.** On a reached def's first call the hook parses its
defaults from the source and evaluates them in the def's module globals
(a default naming a class attribute or an enclosing local is left out);
a generated dataclass ``__init__`` is mapped through ``self`` to its
``repro`` class, whose defaults it reads off the function. Every later
call compares each still-tracked parameter's bound value with its
default — the same object, or the same type and ``==``, counts as the
default — and a parameter stops being tracked at its first non-default
binding. A generator resuming at a ``yield`` is not a call. The census
lists the parameters no call varied, grouped by module and def (a
dataclass by its class line), ending ``never varied N of M defaulted
parameters``.

The smoke rows that run ``benchmarks/e2e/run.py`` or
``rss_layout_check.py`` (under its own ``PYTHONPATH``) are left out: the
traced passes run the same commands. The rows run small scales and
short durations, so a def that only a longer run calls can show up:
check a listed def or parameter for callers under ``src/`` before
cutting it.

    python3 tools/reach.py                 # ~4 min on 2 CPUs, ~1 GB peak (gates)
    python3 tools/reach.py --examples      # the examples count as callers
    python3 tools/reach.py --root DIR      # another checkout (a parent)

Exit codes: 0 when every command ran as expected, 1 otherwise (the
inventories are printed either way).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import smoke  # noqa: E402

#: Written into a temporary directory that leads ``PYTHONPATH``.
SITECUSTOMIZE = r'''
import ast
import os
import sys
import threading

_SRC = os.environ["REACH_SRC"]
_OUT = os.environ["REACH_OUT"]
_seen = {}
#: id(code) -> [f_lasti at its first call, def record, {param: default}]
#: while a reached def has a parameter no call has varied yet.
_knobs = {}
#: suffix -> [pid, file]: each process appends to its own files.
_sinks = {}
#: path -> ({def start line: def node}, {class qualname: start line}).
_trees = {}


def _write(suffix, line):
    pid = os.getpid()
    sink = _sinks.get(suffix)
    if sink is None or sink[0] != pid:
        sink = _sinks[suffix] = [pid, open(
            os.path.join(_OUT, f"{pid}.{suffix}"), "a", buffering=1)]
    sink[1].write(line + "\n")


def _tree(path):
    if path not in _trees:
        defs, classes = {}, {}

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    start = min([child.lineno,
                                 *(d.lineno for d in child.decorator_list)])
                    if isinstance(child, ast.ClassDef):
                        classes[prefix + child.name] = start
                        visit(child, f"{prefix}{child.name}.")
                    else:
                        defs[start] = child
                        visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        with open(path, encoding="utf-8") as source:
            visit(ast.parse(source.read()), "")
        _trees[path] = defs, classes
    return _trees[path]


def _function_knobs(frame, code):
    """A def's defaults, parsed from its source and evaluated in its
    module's globals (one naming a class attribute or an enclosing
    local is left out)."""
    node = _tree(code.co_filename)[0].get(code.co_firstlineno)
    if node is None or node.name != code.co_name:  # a lambda on a def line
        return None
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    pairs = [*zip(positional[len(positional) - len(args.defaults):],
                  args.defaults),
             *((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)]
    defaults = {}
    for arg, expression in pairs:
        try:
            defaults[arg.arg] = eval(
                compile(ast.Expression(expression), code.co_filename, "eval"),
                frame.f_globals)
        except NameError:
            pass
    return f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_qualname}", defaults


def _dataclass_knobs(frame, code):
    """A generated ``__init__``'s defaults, keyed by the repro dataclass
    that owns it (found through ``self``)."""
    if not code.co_argcount:
        return None
    for cls in type(frame.f_locals.get(code.co_varnames[0])).__mro__:
        init = cls.__dict__.get("__init__")
        if getattr(init, "__code__", None) is code:
            break
    else:
        return None
    path = getattr(sys.modules.get(cls.__module__), "__file__", None) or ""
    if not (path.startswith(_SRC) and "__dataclass_fields__" in cls.__dict__):
        return None
    line = _tree(path)[1].get(cls.__qualname__)
    if line is None:
        return None
    positional = code.co_varnames[1:code.co_argcount]
    values = init.__defaults__ or ()
    defaults = dict(zip(positional[len(positional) - len(values):], values))
    defaults.update(init.__kwdefaults__ or {})
    return f"{path}\t{line}\t{cls.__qualname__}", defaults


def _same(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except (TypeError, ValueError):  # e.g. an array's truth value
        return False


def _vary(frame, knobs):
    """Record, and stop tracking, each parameter this call binds to a
    non-default value; a generator resuming at a yield is no call."""
    lasti, record, defaults = knobs
    if frame.f_lasti != lasti:
        return
    bound = frame.f_locals
    for name in [name for name, default in defaults.items()
                 if not _same(bound.get(name, default), default)]:
        del defaults[name]
        _write("knobs", f"{record}\t{name}\t1")
    if not defaults:
        _knobs.pop(id(frame.f_code), None)


def _record(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    knobs = _knobs.get(id(code))
    if knobs is not None:
        _vary(frame, knobs)
        return
    if id(code) in _seen:
        return
    _seen[id(code)] = code
    if code.co_filename.startswith(_SRC):
        _write("calls", f"{code.co_filename}\t{code.co_firstlineno}")
        found = _function_knobs(frame, code)
    elif code.co_filename == "<string>" and code.co_name == "__init__":
        found = _dataclass_knobs(frame, code)
    else:
        return
    if found is None or not found[1]:
        return
    record, defaults = found
    for name in defaults:
        _write("knobs", f"{record}\t{name}\t0")
    _knobs[id(code)] = knobs = [frame.f_lasti, record, defaults]
    _vary(frame, knobs)


sys.setprofile(_record)
threading.setprofile(_record)
'''

ANALYTICAL = ("table1", "fig1", "fig2", "fig3", "fig4", "keyttl", "optimal")
BOTH_ENGINES = ("sim", "adaptivity", "adaptivity-tracking", "adaptivity-lag",
                "churn", "staleness", "simfig1")
SWEEPS = ("sweep", "sweep-optimal")
MODELS = ("stationary", "rank-swap", "gradual-drift", "flash-crowd",
          "diurnal", "trace:<trace.json>", "trace:<trace.jsonl>")
FORMATS = ("text", "csv", "json")
SMALL = ("--scale", "0.02", "--duration", "60")

#: The reach set, as ``tools/smoke.py`` commands: ``runner`` is ``python
#: -m repro.experiments.runner``, ``<name>`` the file ``name`` in the work
#: directory.
ROWS: tuple[tuple[str, ...], ...] = (
    ("runner", "--list"),
    *((("runner", *ANALYTICAL, "--format", fmt)) for fmt in FORMATS),
    *(("runner", *BOTH_ENGINES, "--engine", engine, *SMALL, "--no-store",
       "--format", fmt) for engine in ("event", "vectorized") for fmt in FORMATS),
    *(("runner", *SWEEPS, *SMALL, "--no-store", "--format", fmt)
      for fmt in FORMATS),
    *(("runner", "adaptivity-tracking", "adaptivity-lag", *SWEEPS,
       "--workload", model, "--scale", "0.02", "--duration", "120",
       "--no-store", "--format", "json") for model in MODELS),
    *(("runner", "adaptivity-tracking", "adaptivity-lag", "--engine", "event",
       "--workload", model, "--scale", "0.02", "--duration", "120",
       "--no-store", "--format", "json") for model in MODELS),
    *(("runner", "sim", "--engine", engine, *SMALL, "--replicates", "2",
       "--jobs", "2", "--store", f"<replicates-{engine}.sqlite>")
      for engine in ("event", "vectorized") for _cold_then_warm in range(2)),
    ("runner", "sim", "--engine", "event", *SMALL, "--no-store", "--profile",
     "--progress", "--trace-out", "<event-trace.json>", "--events-out",
     "<event-events.jsonl>", "--format", "json"),
    ("runner", "all", *SMALL, "--no-store", "--format", "csv", "--output",
     "<out>"),
    ("runner", "staleness", "--engine", "vectorized", "--scale", "0.02",
     "--duration", "250", "--no-store", "--format", "json"),
    *(("runner", "adaptivity-tracking", "adaptivity-lag", "--engine", engine,
       *SMALL, "--seed", "1", "--window", "4", "--shift-at", "20",
       "--no-store", "--format", "json") for engine in ("event", "vectorized")),
    # Every gate's measure, called once, without the ceiling verdicts:
    # its timing ratios read nothing under the recording profile hook.
    ("python", "-c", "from benchmarks import gates; gates.readings(gates.GATES)"),
)
#: Smoke commands of these scripts are not run: see the module docstring.
BENCHMARK_SCRIPTS = ("benchmarks/e2e/run.py", "tools/rss_layout_check.py")


@dataclass(frozen=True)
class Def:
    """One ``def`` of a module: the line its code object starts on."""

    path: str
    line: int
    end: int
    qualname: str

    @property
    def lines(self) -> int:
        return self.end - self.line + 1


def defs_of(source: str, path: str) -> list[Def]:
    """Every function definition in ``source``, nested ones included."""
    found: list[Def] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                name = f"{prefix}{child.name}"
                found.append(Def(path, start, child.end_lineno, name))
                visit(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unreached(defs: list[Def], called: set[tuple[str, int]]) -> list[Def]:
    """The defs whose ``(path, first line)`` no process called."""
    return [d for d in defs if (d.path, d.line) not in called]


def inventory(missed: list[Def], total: int) -> str:
    """``missed`` grouped by module, then the ``unreached`` total line."""
    out: list[str] = []
    module = None
    for d in sorted(missed, key=lambda d: (d.path, d.line)):
        if d.path != module:
            module = d.path
            out.append(module)
        out.append(f"    {d.line:>5}  {d.qualname}  ({d.lines} lines)")
    out.append(f"unreached {len(missed)} of {total} defs, "
               f"{sum(d.lines for d in missed)} lines")
    return "\n".join(out)


def src_defs(root: Path) -> list[Def]:
    package = root / "src" / "repro"
    defs: list[Def] = []
    for path in sorted(package.rglob("*.py")):
        defs += defs_of(path.read_text(encoding="utf-8"),
                        path.relative_to(root).as_posix())
    return defs


def benchmark_rows(root: Path, work: Path) -> list[tuple[str, ...]]:
    """The five benchmark commands, each as its traced in-process pass
    (a warm one after the run that fills its store)."""
    sys.path.insert(0, str(root))
    from benchmarks.e2e.workloads import WORKLOADS

    rows: list[tuple[str, ...]] = []
    for workload in WORKLOADS:
        populate = workload.populate_argv(0, work)
        if populate is not None:
            rows.append(("runner", *populate))
        rows.append(("python", "benchmarks/e2e/layers.py",
                     str(work / f"{workload.name}-traced.json"), "1", "--",
                     *workload.runner_argv(0, work, "reach")))
    return rows


def smoke_commands(root: Path, work: Path,
                   examples: bool) -> list[tuple[smoke.Command, Path]]:
    """The smoke table's commands, each row's in its own directory; the
    examples are those of ``root``."""
    commands = [
        (command, work / row.name)
        for row in smoke.SMOKES if row.name != "examples"
        for command in row.commands
        if command.argv[1] not in BENCHMARK_SCRIPTS
    ]
    return commands + [(command, work / "examples") for command
                       in smoke.example_commands(root) if examples]


def write_traces(work: Path) -> None:
    """The recorded traces the ``trace:`` rows replay (not recorded)."""
    import numpy as np

    from repro.analysis.zipf import ZipfDistribution
    from repro.experiments.scenario import simulation_scenario
    from repro.workloads import StationaryZipf, record_trace

    params = simulation_scenario(scale=0.02)
    trace = record_trace(
        StationaryZipf().build(ZipfDistribution(params.n_keys, params.alpha),
                               np.random.default_rng(5)),
        duration=120.0, queries_per_round=3,
    )
    trace.save(work / "trace.json")
    trace.save(work / "trace.jsonl")


def recording_env(root: Path, work: Path) -> dict[str, str]:
    """The environment of a recorded process: the ``sitecustomize`` in
    ``work/site`` ahead of ``root/src`` on ``PYTHONPATH``, and every
    process's first calls written under ``work/calls``."""
    site, calls = work / "site", work / "calls"
    site.mkdir(parents=True, exist_ok=True)
    calls.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    env = smoke.clean_env(os.pathsep.join([str(site), str(root / "src")]))
    env.update(REACH_SRC=str(root / "src" / "repro") + os.sep,
               REACH_OUT=str(calls))
    return env


def called_lines(work: Path, root: Path) -> set[tuple[str, int]]:
    """``(path relative to root, first line)`` of every recorded call."""
    called: set[tuple[str, int]] = set()
    for record in (work / "calls").glob("*.calls"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, first = line.rsplit("\t", 1)
            called.add((Path(filename).relative_to(root).as_posix(),
                        int(first)))
    return called


def census(work: Path, root: Path) -> dict[tuple[str, int, str], dict[str, bool]]:
    """``(path relative to root, first line, name) -> {parameter: varied}``
    for every recorded def or dataclass with a defaulted parameter, in
    declaration order."""
    knobs: dict[tuple[str, int, str], dict[str, bool]] = {}
    for record in sorted((work / "calls").glob("*.knobs")):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, first, name, parameter, varied = line.split("\t")
            params = knobs.setdefault(
                (Path(filename).relative_to(root).as_posix(), int(first), name),
                {})
            params[parameter] = params.get(parameter, False) or varied == "1"
    return knobs


def knob_inventory(knobs: dict[tuple[str, int, str], dict[str, bool]]) -> str:
    """The never-varied parameters grouped by module and def, then the
    ``never varied`` total line."""
    out: list[str] = []
    module = None
    never = 0
    for (path, line, name), params in sorted(knobs.items()):
        fixed = [parameter for parameter, varied in params.items() if not varied]
        if not fixed:
            continue
        never += len(fixed)
        if path != module:
            module = path
            out.append(module)
        out.append(f"    {line:>5}  {name}  ({', '.join(fixed)})")
    total = sum(len(params) for params in knobs.values())
    out.append(f"never varied {never} of {total} defaulted parameters")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout to measure (default: the one this file is in)",
    )
    parser.add_argument("--examples", action="store_true",
                        help="also run examples/*.py as callers")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    ok = True
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch)
        env = recording_env(root, work)
        write_traces(work)
        rows = [(smoke.Command(argv), work)
                for argv in (*ROWS, *benchmark_rows(root, work))]
        rows += smoke_commands(root, work, args.examples)
        for number, (command, files) in enumerate(rows, 1):
            files.mkdir(exist_ok=True)
            try:
                smoke.run(command, root, files, env)
                mark = ""
            except smoke.Failed as error:
                ok, mark = False, f"   UNEXPECTED {error}"
            print(f"[{number}/{len(rows)}] {' '.join(command.argv)[:100]}{mark}",
                  file=sys.stderr, flush=True)
        called = called_lines(work, root)
        knobs = census(work, root)
    defs = src_defs(root)
    print(inventory(unreached(defs, called), len(defs)))
    print(knob_inventory(knobs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
