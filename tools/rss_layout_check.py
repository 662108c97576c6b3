#!/usr/bin/env python3
"""Does a cold run's peak RSS depend on where the heap happens to start?

The benchmark bounds ``peak_rss_mb`` at 2%. A transient of a few MiB that
glibc serves from a fresh mmap under one heap layout and from retained
heap under another moves the high-water mark by that much with no change
to the program — and the layout moves with the size of the process
environment. This runs one benchmark command — ``sweep_cold`` (``runner
sweep --scale 8 --jobs 1 --store <tmp>``), ``churn_cold`` (``runner
churn --engine vectorized --duration 120 --scale 0.02 --seed 0
--no-store``), ``sim_event`` (``runner sim --engine event --duration
150 --seed 0 --no-store``: the event substrate — overlay, DHT, index
stores — and no kernel) or ``sweep_warm`` (the ``sweep_cold`` command against
one store that the unmeasured first run fills, so every measured child
hits 18/18, writing its result under ``--output``), bytecode cached as
in the benchmark — in one child per environment padding, reads each child's
``ru_maxrss`` from ``os.wait4`` and fails when the readings are more
than ``LIMIT_KIB`` apart: such a step is a transient to remove from the
program, not noise to re-roll.
Which paddings flip depends on the rest of the environment, so a pass is
evidence, not proof; a failure is a finding.

What it cannot see is a step that moves with the *program* and not with
the environment: at ``081731e`` ``churn_cold`` read 50.1 MB under all
eight paddings, and 51.1 MB under all eight once any 50 unused lines were
added to a module it imports — the dead calibration substrates were still
resident when the kernel allocated, and the kernel's arrays landed one
1 MiB heap step higher. That one is removed at its cause (a collection
between cost resolution and the kernels) and guarded there, by
``tests/experiments/test_calibration_collect.py``.

    python3 tools/rss_layout_check.py                        # sweep_cold
    python3 tools/rss_layout_check.py --workload churn_cold
    python3 tools/rss_layout_check.py --workload sim_event
    python3 tools/rss_layout_check.py --workload sweep_warm
    python3 tools/rss_layout_check.py --root DIR  # another checkout (a parent)

Exit codes: 0 within the limit, 1 spread too wide or a child failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Bytes of padding added to the environment, one child each. Commit
#: b016759 reads 84.0 MB under most of them and 82.0 MB under the rest
#: (which ones moves with the machine's own environment).
PADDINGS = (0, 500, 800, 1500, 2000, 2500, 3000, 4000)
LIMIT_KIB = 1024
_RUNNER = ("-m", "repro.experiments.runner")
#: Runner arguments by benchmark workload. STORE stands for a fresh file,
#: or for a warm workload the one file every run of it shares; OUTPUT for
#: a fresh directory.
STORE, OUTPUT = "<store>", "<output>"
COMMANDS = {
    "sweep_cold": ("sweep", "--scale", "8", "--jobs", "1", "--format", "json",
                   "--store", STORE),
    "churn_cold": ("churn", "--engine", "vectorized", "--duration", "120",
                   "--scale", "0.02", "--seed", "0", "--format", "json",
                   "--no-store"),
    "sim_event": ("sim", "--engine", "event", "--duration", "150",
                  "--seed", "0", "--format", "json", "--no-store"),
    "sweep_warm": ("sweep", "--scale", "8", "--jobs", "1", "--format", "json",
                   "--store", STORE, "--output", OUTPUT),
}
#: Workloads whose runs read one store instead of each filling its own.
WARM = frozenset({"sweep_warm"})


def peak_rss_kib(root: Path, workload: str, padding: int, work: Path) -> int:
    """``ru_maxrss`` (KiB on Linux) of one run of ``workload`` under
    ``padding``, with its store (if it has one), its output and the
    shared bytecode cache under ``work``."""
    env = {
        name: value for name, value in os.environ.items()
        if name not in ("PYTHONDONTWRITEBYTECODE", "REPRO_STORE",
                        "REPRO_OBS", "REPRO_OBS_EVENTS")
    }
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONPYCACHEPREFIX=str(work / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    if padding:
        env["RSS_LAYOUT_PADDING"] = "x" * padding
    if workload in WARM:
        store = str(work / "warm.sqlite")  # filled by the first run
    else:
        store = tempfile.mkstemp(suffix=".sqlite", dir=work)[1]
        os.unlink(store)  # a fresh store per child: 18 misses, 18 writes
    paths = {STORE: store, OUTPUT: tempfile.mkdtemp(dir=work)}
    argv = [paths.get(arg, arg) for arg in COMMANDS[workload]]
    child = subprocess.Popen(
        [sys.executable, *_RUNNER, *argv],
        cwd=root, env=env, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload} exited with {child.returncode} under padding {padding}"
        )
    return usage.ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout to measure (default: the one this file is in)",
    )
    parser.add_argument(
        "--workload", choices=sorted(COMMANDS), default="sweep_cold",
        help="benchmark command to run (default: sweep_cold)",
    )
    args = parser.parse_args(argv)
    root, workload = args.root.resolve(), args.workload
    readings: dict[int, int] = {}
    with tempfile.TemporaryDirectory(prefix="rss-layout-") as work:
        try:
            # Unmeasured: compiles the bytecode every measured child
            # loads, and fills a warm workload's store.
            peak_rss_kib(root, workload, 0, Path(work))
            for padding in PADDINGS:
                readings[padding] = peak_rss_kib(
                    root, workload, padding, Path(work)
                )
                print(f"padding {padding:>5} B   peak RSS "
                      f"{readings[padding] / 1024:7.2f} MiB", flush=True)
        except RuntimeError as error:
            print(f"rss_layout_check: {error}", file=sys.stderr)
            return 1
    spread = max(readings.values()) - min(readings.values())
    verdict = "ok" if spread <= LIMIT_KIB else "FAIL"
    print(f"{workload}: spread {spread / 1024:.2f} MiB over {len(readings)} environment "
          f"sizes (limit {LIMIT_KIB / 1024:.2f} MiB): {verdict}")
    return 0 if spread <= LIMIT_KIB else 1


if __name__ == "__main__":
    sys.exit(main())
