"""The five canonical cold-CLI workloads.

Each is one ``python -m repro.experiments.runner ...`` command; a rep is
one fresh interpreter running it. ``--format json`` is added to every
command so the output check sees all digits of every series (the default
ASCII table rounds to four).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["Workload", "WORKLOADS", "by_name"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: runner arguments before the harness adds seed, store and format.
    argv: tuple[str, ...]
    #: reps in one run, the same on every machine so that runs compare.
    reps: int
    why: str
    #: busy processes of the command; it is confined to that many CPUs.
    processes: int = 1
    #: "none" (--no-store), "fresh" (a new db per rep) or "warm" (one db,
    #: filled by an untimed-rep populating run during set-up).
    store: str = "none"
    #: series that do not depend on the seed (checked for every seed).
    seed_free_series: tuple[str, ...] = ()
    #: workloads of one group must print equal figures for a seed.
    figure_group: str = ""
    #: workload whose traced ``parallel.run_many_s`` is the numerator of
    #: this one's ``parallel.speedup``.
    speedup_base: str = ""

    def seeded_argv(self, seed: int) -> list[str]:
        """``argv`` with the harness seed, unless the workload fixes one."""
        if "--seed" in self.argv:
            return list(self.argv)
        return [*self.argv, "--seed", str(seed)]

    def runner_argv(self, seed: int, work: Path, rep: str) -> list[str]:
        """Arguments of ``repro.experiments.runner`` for one rep."""
        argv = self.seeded_argv(seed)
        if self.store == "none":
            argv.append("--no-store")
        elif self.store == "fresh":
            argv += ["--store", str(work / f"{self.name}-{rep}.sqlite")]
        else:
            argv += ["--store", str(work / f"{self.name}.sqlite")]
        argv += ["--format", "json"]
        if self.store == "warm":
            argv += ["--output", str(self.output_dir(work, rep))]
        return argv

    def populate_argv(self, seed: int, work: Path) -> Optional[list[str]]:
        """The set-up command that fills a warm workload's store."""
        if self.store != "warm":
            return None
        return [
            *self.seeded_argv(seed),
            "--store", str(work / f"{self.name}.sqlite"), "--format", "json",
        ]

    def output_dir(self, work: Path, rep: str) -> Path:
        return work / f"{self.name}-{rep}-out"

    def result_file(self, work: Path, rep: str) -> Optional[Path]:
        """Where the rep writes its result, if not to stdout."""
        if self.store != "warm":
            return None
        return self.output_dir(work, rep) / f"{self.argv[0]}.json"


_SWEEP = ("sweep", "--scale", "8")
_SWEEP_SEED_FREE = ("model msg/s", "keyTtl [s]")

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="churn_cold",
        # The calibration probes' cost swings 4x with the program seed
        # (5.7 s at seed 2, 23 s at seed 3), which would bury any code
        # change under seed-to-seed spread; the workload is one input.
        argv=("churn", "--engine", "vectorized", "--duration", "120",
              "--scale", "0.02", "--seed", "0"),
        reps=2,
        why="fastsim.compare churn calibration is ~99% of it (kernel < 1%): "
            "ROADMAP item 1's target; kernel and pool changes must not move it",
        # every series: with a fixed program seed none depends on --seed
        seed_free_series=("success rate", "hit rate", "msg/s"),
    ),
    Workload(
        name="sim_event",
        argv=("sim", "--engine", "event", "--duration", "150"),
        reps=2,
        why="all time is the event substrate (pdht/dht/net/unstructured), no "
            "calibration, no kernel: tells a faster event engine from fewer "
            "calibration probes",
        seed_free_series=("model [msg/s]",),
    ),
    Workload(
        name="sweep_cold",
        argv=(*_SWEEP, "--jobs", "1"),
        reps=3,
        why="18 cells at 160k peers: workload draws + kernel rounds ~70%, "
            "analysis planning ~25%, 18 store writes, no calibration",
        store="fresh",
        seed_free_series=_SWEEP_SEED_FREE,
        figure_group="sweep",
    ),
    Workload(
        name="sweep_pool",
        argv=(*_SWEEP, "--jobs", "2"),
        reps=3,
        processes=2,
        why="same grid through run_many's process pool: the only workload "
            "with fork/pickle/merge, so a kernel gain that costs the pool "
            "path shows here",
        seed_free_series=_SWEEP_SEED_FREE,
        figure_group="sweep",
        speedup_base="sweep_cold",
    ),
    Workload(
        name="sweep_warm",
        argv=(*_SWEEP, "--jobs", "1"),
        reps=6,
        why="18/18 store hits, zero kernel runs: interpreter start + import, "
            "analysis planning, store reads, JSON export - the floor every "
            "CLI call pays",
        store="warm",
        seed_free_series=_SWEEP_SEED_FREE,
        figure_group="sweep",
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)
