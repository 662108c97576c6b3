"""Cold subprocess reps: pin, spawn, watch the machine, wait, account.

Every rep is a fresh interpreter, timed from spawn to exit from outside.
The box this benchmark was built on is shared: identical code ran 1.3-1.8x
slower for seconds to minutes at a time, with ``/proc/stat`` steal at 0.
The slowdown belongs to the core a process runs on, so every child is
confined to a fixed set of CPUs and a :class:`Sentinel` thread of the
harness shares each of them, running a fixed tick of work every
``TICK_PERIOD_S`` for as long as the child lives. How long the ticks took
against ``NOMINAL_TICK_S`` is the child's ``slowdown``; times divided by it
are *reference-speed seconds*, which is what the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import os
import random
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Sequence

__all__ = [
    "REPO_ROOT", "Rep", "Sentinel", "child_env", "confined", "cpus_for",
    "spawn", "summary", "tick", "trimmed_mean", "IMPORT_PROBES", "IMPORT_PROBE",
    "NOMINAL_TICK_S", "REP_TIMEOUT_S", "TICK_PERIOD_S",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
IMPORT_PROBES = 5
#: A rep that runs this long is killed and counted as failed; the slowest
#: workload's rep takes ~12 s on a quiet box.
REP_TIMEOUT_S = 150.0
IMPORT_PROBE = "import repro.experiments.runner"
#: CPU seconds one :func:`tick` takes beside a running child on the
#: builder's box when it is quiet (CPython 3.11, Xeon 2.1 GHz): the
#: reference speed. Only ratios of reference-speed seconds mean anything on
#: another machine.
NOMINAL_TICK_S = 0.00064
#: One tick per period: ~3% of the CPU the child runs on.
TICK_PERIOD_S = 0.025


def child_env(pycache: Path) -> dict[str, str]:
    """The environment of every child: same work and threads run to run."""
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "REPRO_STORE", "REPRO_OBS",
                 "REPRO_OBS_EVENTS"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(REPO_ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(pycache),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key * 0.5
        self.next = self


@functools.lru_cache(maxsize=None)
def _ring() -> tuple[_Node, dict[int, _Node]]:
    """20 000 small objects linked in a shuffled cycle, and a dict of them:
    a few MB that the child evicts from the cache between ticks."""
    nodes = [_Node(i) for i in range(20_000)]
    order = list(range(len(nodes)))
    random.Random(1).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return nodes[0], {node.key: node for node in nodes}


def tick(node: _Node, table: dict[int, _Node]) -> tuple[float, _Node]:
    """CPU seconds a fixed piece of interpreter work takes right now, and
    where it stopped in the ring.

    Four parts integer arithmetic (touches nothing) to one part chasing
    objects through the ring (misses the cache): of the mixes tried, the
    one whose slowdown came closest to the slowdown of all five workloads.
    """
    started = time.thread_time()
    acc = 0
    for i in range(4_000):
        acc = (acc * 31 + i) % 1_000_003
    total = 0.0
    for _ in range(1_000):
        node = node.next
        total += table[node.key].value
    return time.thread_time() - started, node


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of the middle 80% (ticks that took a page fault or an
    interrupt are not the machine's speed)."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Sentinel(threading.Thread):
    """Ticks on one CPU until stopped; thread CPU time, so being
    descheduled in favour of the child does not count."""

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.ticks: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        node, table = _ring()
        while True:  # at least one tick: a child may outrun one period
            seconds, node = tick(node, table)
            self.ticks.append(seconds)
            if self._done.wait(TICK_PERIOD_S):
                return

    def stop(self) -> float:
        """Seconds per tick while it ran."""
        self._done.set()
        self.join()
        return trimmed_mean(self.ticks)


def cpus_for(processes: int) -> list[int]:
    """The CPUs a workload of ``processes`` busy processes is confined to:
    as many as it can use, taken from the end of the allowed set."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-max(1, processes):]


@dataclass
class Rep:
    """What one child process cost, as measured (raw seconds)."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    #: sentinel seconds per tick / NOMINAL_TICK_S while the child ran.
    slowdown: float
    exit_code: int
    stdout: Path
    stderr: Path

    def at_reference_speed(self, seconds: float) -> float:
        return seconds / self.slowdown

    def stderr_tail(self, lines: int = 5) -> str:
        text = self.stderr.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


@contextlib.contextmanager
def confined(cpus: Sequence[int]) -> Iterator[list[float]]:
    """Confine this thread, and so the children it starts, to ``cpus``
    with a sentinel on each; on exit the yielded list holds the seconds a
    tick took meanwhile."""
    before = os.sched_getaffinity(0)
    sentinels = [Sentinel(cpu) for cpu in cpus]
    tick_s: list[float] = []
    os.sched_setaffinity(0, set(cpus))  # pid 0: this thread only
    for sentinel in sentinels:
        sentinel.start()
    try:
        yield tick_s
    finally:
        tick_s.append(statistics.fmean(s.stop() for s in sentinels))
        os.sched_setaffinity(0, before)


def spawn(
    command: Sequence[str],
    env: dict[str, str],
    log: Path,
    cpus: Sequence[int],
    timeout: float = REP_TIMEOUT_S,
) -> Rep:
    """Run ``command`` to completion on ``cpus`` and account for its tree.

    ``os.wait4`` returns the child's rusage *including* the descendants it
    waited for, so pool workers count in ``cpu_s``; ``peak_rss_mb`` is the
    largest single process of the tree (what ``ru_maxrss`` means).
    The child leads its own process group so a timeout kills the tree.
    """
    stdout, stderr = log.with_suffix(".out"), log.with_suffix(".err")
    with open(stdout, "wb") as out, open(stderr, "wb") as err, \
            confined(cpus) as tick_s:
        started = perf_counter()
        proc = subprocess.Popen(
            list(command), stdout=out, stderr=err, env=env,
            cwd=REPO_ROOT, start_new_session=True,
        )

        def kill_tree() -> None:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(timeout, kill_tree)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_tree()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_tree()  # workers a crashed child may have left behind
    return Rep(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        slowdown=tick_s[0] / NOMINAL_TICK_S,
        exit_code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def summary(values: Sequence[float]) -> dict[str, float]:
    """min / q1 / median / q3 / max / n of a sample (n >= 1)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {
        "min": ordered[0], "q1": q1, "median": median, "q3": q3,
        "max": ordered[-1], "n": len(ordered),
    }
