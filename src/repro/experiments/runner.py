"""Command-line experiment runner, driven by the experiment registry.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner table1 fig1 fig4
    python -m repro.experiments.runner sim --engine vectorized --seed 3
    python -m repro.experiments.runner sweep --engine vectorized \\
        --format json --output out/
    python -m repro.experiments.runner all

Every experiment is an :class:`~repro.experiments.api.ExperimentSpec`;
``--list`` enumerates the registry with each experiment's engine
capabilities. Every :class:`~repro.experiments.api.ExperimentParams`
field is a flag of the same name (``--engine``, ``--duration``,
``--seed``, ``--scale``, ``--shift-at``, ``--window``, ``--workload``,
``--replicates``, ``--jobs``, ``--store``; help text and type live on
the field) that overrides the spec default where the spec accepts it
(``--jobs N`` fans an experiment's independent units — replicate seeds,
sweep cells, per-strategy kernel runs — over N worker processes; 0 means
one per CPU). A flag that no requested simulated experiment accepts, a
non-finite or an out-of-range value exits non-zero with a one-line
``error:``; a request naming only analytical experiments ignores the
flags. Requesting an engine an experiment does not support exits
non-zero with the gate reason.
``--format csv|json`` switches the output from rendered ASCII to
machine-readable series (JSON results carry full provenance, including
per-seed values for replicated runs), and ``--output DIR`` writes one
file per experiment instead of printing.

``--store PATH`` runs against the SQLite artifact store at PATH
(:mod:`repro.store`): finished figures, sweep cells and calibrations
already on disk load instead of recompute. A simulated run's figure is
one row, keyed by experiment, engine, scenario and every parameter but
``--jobs``/``--store``/``--replicates`` (a ``trace:<path>`` workload by
the sha256 of the trace file's bytes), and read before numpy is
imported: a repeated run is one lookup, reported as ``"source":
"store"`` in its JSON. A figure is saved once built, so an interrupted
sweep resumes cell by cell. Every row carries the sha256 of its
payload; one that no longer matches is recomputed and overwritten.
``REPRO_STORE`` sets the same default process-wide; ``--no-store``
disables store traffic even when the variable is set.

Once the run is done, ``python -m repro.experiments.runner`` closes the
``REPRO_STORE`` handle and freezes the heap
(:func:`repro.experiments.heap.freeze_for_exit`), so interpreter
finalization does not walk the run's objects; :func:`main` itself
leaves the collector as it found it.

``--profile`` enables telemetry collection (:mod:`repro.obs`) for the
run: every result carries its merged span/counter/gauge snapshot in the
``telemetry`` provenance block (exported with ``--format json``), and a
per-experiment profile tree is printed to **stderr** so it composes with
piped/redirected stdout output.

The live flags attach the flight recorder (:mod:`repro.obs.events`) for
the run — each implies ``--profile``'s collection: ``--progress``
renders per-unit progress lines (sweep cells, replicate seeds, kernel
round heartbeats) with ETA to **stderr**; ``--trace-out PATH`` writes a
Perfetto-loadable Chrome trace with one lane per worker process;
``--events-out PATH`` streams the raw event JSONL (crash-safe: a killed
run keeps everything recorded so far; :func:`repro.obs.replay` rebuilds
its profile). The trace file is written even when the run is
interrupted.

The pre-registry ``EXPERIMENTS`` dict shim is gone; use
:func:`repro.experiments.api.run` and the registry.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields

from repro import obs
from repro.obs import events as obs_events
from repro.errors import CapabilityError, ReproError
from repro.experiments import heap
from repro.experiments.api import (
    SIMULATED,
    ExperimentParams,
    ExperimentResult,
    experiment_names,
    get_spec,
    iter_specs,
    run,
)

__all__ = ["main"]

FORMATS = ("text", "csv", "json")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _listing() -> str:
    width = max(4, max(len(name) for name in experiment_names()))
    lines = [f"{'name':<{width}} {'kind':<11} {'engines':<19} title"]
    for spec in iter_specs():
        lines.append(
            f"{spec.name:<{width}} {spec.kind:<11} "
            f"{spec.capability_label():<19} {spec.title}"
        )
        if spec.gate_reason:
            lines.append(f"{'':<{width}} {'':<11} gated: {spec.gate_reason}")
    lines.append("")
    lines.append("(* = default engine; 'all' runs every experiment)")
    return "\n".join(lines)


def _emit(result: ExperimentResult, args: argparse.Namespace) -> None:
    if args.output is not None:
        fmt = "txt" if args.format == "text" else args.format
        path = result.save(args.output, fmt=fmt)
        print(f"wrote {path}")
        return
    if args.format == "csv":
        print(result.to_csv(), end="")
    elif args.format == "json":
        print(result.to_json())
    else:
        name = result.name
        engine = result.engine or "analytical"
        print(
            f"=== {name} [{engine}] ({result.wall_clock_seconds:.1f}s) "
            + "=" * max(0, 40 - len(name) - len(engine))
        )
        print(result.render())
        print()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help="registered experiment names ('all' for everything; "
        "see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered experiments with their engine capabilities",
    )
    # One flag per ExperimentParams field; its metadata holds the help
    # text and the add_argument keywords. --no-store is --store's
    # partner: ExperimentParams' explicit store-off sentinel "none".
    store_group = parser.add_mutually_exclusive_group()
    for param in dataclass_fields(ExperimentParams):
        target = store_group if param.name == "store" else parser
        target.add_argument(
            "--" + param.name.replace("_", "-"), default=None, **param.metadata
        )
    store_group.add_argument(
        "--no-store",
        action="store_true",
        help="disable all artifact-store traffic for this run, even if "
        "REPRO_STORE is set",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect telemetry: print a span/counter profile tree to "
        "stderr per experiment and embed the snapshot in JSON results",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live progress lines (sweep cells, replicate seeds, "
        "kernel heartbeats) with ETA to stderr; stdout stays parseable",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the run (one lane per "
        "worker process; load it in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="stream raw flight-recorder events to PATH as JSONL "
        "(append; crash-safe, readable mid-run)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (default: %(default)s; json carries provenance)",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="write one file per experiment into DIR instead of printing",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.list:
        print(_listing())
        return 0
    if not args.experiments:
        parser.error("no experiments given (try --list)")

    unknown = [
        n
        for n in args.experiments
        if n != "all" and n not in experiment_names()
    ]
    if unknown:
        parser.error(
            f"unknown experiments {unknown}; available: {experiment_names()}"
        )
    names = (
        experiment_names()
        if "all" in args.experiments
        else list(args.experiments)
    )

    if args.no_store:
        args.store = "none"
    given = {
        param.name: getattr(args, param.name)
        for param in dataclass_fields(ExperimentParams)
        if getattr(args, param.name) is not None
    }
    # A flag is filtered per experiment below, but one that no requested
    # simulated experiment takes would change nothing: refuse it rather
    # than run what was not asked for. Analytical experiments take no
    # flags, so a request naming only those ignores them.
    simulated = [s for s in map(get_spec, names) if s.kind == SIMULATED]
    unused = [
        "--" + name.replace("_", "-")
        for name in given
        if simulated and not any(name in s.accepts for s in simulated)
    ]
    if unused:
        print(
            f"error: {', '.join(unused)}: not accepted by "
            f"{', '.join(s.name for s in simulated)}",
            file=sys.stderr,
        )
        return 1
    # --profile turns collection on for the run and restores the prior
    # state afterwards (the flag must not leak into in-process callers,
    # e.g. the test suite invoking main() directly). The live flags need
    # the same collection (span/counter events are emitted from the
    # collector's recording paths), so each implies it.
    live = bool(args.progress or args.trace_out or args.events_out)
    profile_was_enabled = obs.enabled()
    if args.profile or live:
        obs.enable()
    # The trace sink feeds --trace-out after the run;
    # --events-out streams to disk as it happens; --progress renders to
    # stderr. All active sinks see the same stream via a tee.
    trace_sink: obs_events.TraceSink | None = None
    events_sink: obs_events.JsonlSink | None = None
    previous_sink: obs_events.EventSink | None = None
    if live:
        sinks: list[obs_events.EventSink] = []
        if args.trace_out:
            trace_sink = obs_events.TraceSink()
            sinks.append(trace_sink)
        if args.events_out:
            events_sink = obs_events.JsonlSink(args.events_out)
            sinks.append(events_sink)
        if args.progress:
            sinks.append(obs.ProgressRenderer(sys.stderr))
        previous_sink = obs_events.set_sink(
            sinks[0] if len(sinks) == 1 else obs_events.TeeSink(*sinks)
        )
    try:
        for name in names:
            spec = get_spec(name)
            overrides = {
                key: value
                for key, value in given.items()
                if key in spec.accepts
            }
            # An explicit engine request must not be silently dropped
            # for a simulated experiment: api.run raises CapabilityError
            # with the gate reason. Analytical experiments have nothing
            # to simulate, so --engine is irrelevant there (and filtered
            # above).
            try:
                result = run(name, **overrides)
            except CapabilityError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except ReproError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            _emit(result, args)
            if args.profile and result.telemetry is not None:
                print(
                    obs.profile_text(
                        result.telemetry, title=f"profile: {name}"
                    ),
                    file=sys.stderr,
                )
        return 0
    finally:
        # Exports run in the finally so an interrupted run (^C mid-sweep)
        # still leaves a loadable trace file of everything that
        # happened before the signal.
        if live:
            obs_events.set_sink(previous_sink)
            if events_sink is not None:
                events_sink.close()
            if trace_sink is not None:
                import json

                with open(args.trace_out, "w", encoding="utf-8") as handle:
                    json.dump(obs.chrome_trace(trace_sink.events()), handle)
                print(f"wrote {args.trace_out}", file=sys.stderr)
        if (args.profile or live) and not profile_was_enabled:
            obs.disable()


if __name__ == "__main__":
    status = main()
    heap.freeze_for_exit()
    sys.exit(status)
