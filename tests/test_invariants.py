"""The repo's cross-cutting invariants RL101-RL109, as plain ``ast`` checks.

A check is a function ``check(path, tree, imports)`` returning
``(line, message)`` pairs for one file; ``path`` is repo-relative posix,
and a check scopes itself with a plain ``if`` on it. Every message starts
with the check's RL id (the catalog in README and ROADMAP). A legitimate
exception is a path condition inside the check: there is no comment
escape. To add an invariant, add a check function to ``CHECKS`` plus
triggering and passing rows to ``FIXTURES``.

``test_real_tree_is_clean`` runs all nine over every ``.py`` file under
``src tests benchmarks tools examples`` and fails naming ``path:line``
and the id of each violation.
"""

from __future__ import annotations

import ast
import os
import re
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")


class Imports:
    """One file's import bindings, from the file's single ``ast.walk``.

    ``nodes`` keeps that walk, so a check iterates it instead of walking
    the tree again.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: ``import x [as y]``: y -> "x"
        self.modules: dict[str, str] = {}
        #: ``from x import a [as b]``: b -> "x.a"
        self.names: dict[str, str] = {}
        self.nodes = list(ast.walk(tree))
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def binds(self, name: str, module: str) -> bool:
        return self.modules.get(name) == module

    def of(self, *types: type) -> list:
        return [node for node in self.nodes if isinstance(node, types)]


def chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty if not a pure name chain."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    names.append(node.id)
    return names[::-1]


def in_src_repro(path: str) -> bool:
    return path.startswith("src/repro/")


# RL101: seeded runs are pinned bit-identical, and a wall-clock read in
# simulation or storage code is one refactor away from leaking into a
# result or an artifact key. Every sanctioned clock read lives in
# repro.obs (repro.obs.clock re-exports perf_counter and utc_now_iso), so
# one grep of that package audits every timing source. Benchmarks and
# tests time whatever they like.
_TIME_ATTRS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns"}
)
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def rl101_wall_clock(path, tree, imports):
    if not in_src_repro(path) or path.startswith("src/repro/obs/"):
        return []
    hits = []
    for node in imports.of(ast.ImportFrom, ast.Attribute):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                hits += [
                    (node.lineno, f"RL101 'from time import {alias.name}' "
                     "outside repro.obs; import it from repro.obs.clock")
                    for alias in node.names if alias.name in _TIME_ATTRS
                ]
            continue
        names = chain(node)
        if len(names) < 2:
            continue
        *head, attr = names
        base = head[-1]
        if attr in _TIME_ATTRS and imports.binds(base, "time"):
            hits.append((node.lineno, f"RL101 'time.{attr}' outside "
                         "repro.obs; use repro.obs.clock"))
        elif attr in _DATETIME_ATTRS and base in ("datetime", "date"):
            # from datetime import datetime -> datetime.now(); import
            # datetime [as _dt] -> _dt.datetime.now() / datetime.now()
            if (
                imports.names.get(base) in ("datetime.datetime", "datetime.date")
                or (len(head) >= 2 and imports.binds(head[-2], "datetime"))
                or (len(head) == 1 and imports.binds(base, "datetime"))
            ):
                hits.append((node.lineno, f"RL101 'datetime ...{attr}()' "
                             "outside repro.obs; use "
                             "repro.obs.clock.utc_now_iso"))
    return hits


# RL102: module-level RNG calls draw from hidden process-global state; two
# call sites interleave differently under refactors, imports or worker
# pools, silently breaking the bit-identical seeded captures. Seeding the
# global is banned too. Constructors and seeding machinery are fine.
_NUMPY_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "BitGenerator", "SeedSequence", "PCG64",
     "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)
_STDLIB_RNG_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})


def rl102_global_rng(path, tree, imports):
    hits = []
    for node in imports.of(ast.Call):
        names = chain(node.func)
        if len(names) < 2:
            continue
        *head, attr = names
        if head[-1] == "random" and len(head) >= 2:
            if (
                imports.binds(head[-2], "numpy")
                and attr not in _NUMPY_RNG_CONSTRUCTORS
            ):
                hits.append((node.lineno, f"RL102 '{'.'.join(names)}' uses "
                             "numpy's global RNG; draw from a threaded "
                             "np.random.Generator"))
        elif (
            len(names) == 2
            and imports.binds(head[0], "random")
            and attr not in _STDLIB_RNG_CONSTRUCTORS
        ):
            hits.append((node.lineno, f"RL102 'random.{attr}' uses the "
                         "stdlib global RNG; use a seeded random.Random "
                         "instance"))
    return hits


# RL103: kernel dtypes are policy, not literals. precision.py is the one
# fastsim module that names concrete dtypes (StatePrecision policies plus
# INDEX_DTYPE / PROB_DTYPE); a bare np.float64 elsewhere either fights the
# --precision policy or silently widens slim runs.
_DTYPE_NAMES = frozenset(
    {"float16", "float32", "float64", "int8", "int16", "int32", "int64",
     "uint8", "uint16", "uint32", "uint64", "complex64", "complex128"}
)


def rl103_dtype_literal(path, tree, imports):
    if not path.startswith("src/repro/fastsim/") or path.endswith(
        "/precision.py"
    ):
        return []
    hits = []
    for node in imports.of(ast.Attribute, ast.Call):
        if isinstance(node, ast.Attribute):
            names = chain(node)
            if (
                len(names) == 2
                and names[1] in _DTYPE_NAMES
                and imports.binds(names[0], "numpy")
            ):
                hits.append((node.lineno, f"RL103 bare '{'.'.join(names)}' "
                             "in fastsim; use the repro.fastsim.precision "
                             "policy/constants"))
            continue
        for keyword in node.keywords:
            value = keyword.value
            if (
                keyword.arg == "dtype"
                and isinstance(value, ast.Constant)
                and value.value in _DTYPE_NAMES
            ):
                hits.append((value.lineno, f"RL103 dtype string literal "
                             f"{value.value!r} in fastsim; use the "
                             "repro.fastsim.precision policy/constants"))
    return hits


# RL104: result-affecting fields must reach the artifact key (or stale
# artifacts get served) and execution details must not (or identical
# results get recomputed). The split lives in the key function popping
# fields out of the key inputs, declared in a module-level EXECUTION_ONLY
# frozenset: an undeclared pop is a leak, a declared field that is not
# popped (or not a field) is stale, and a module defining an identity
# dataclass without the allowlist or its key function fails outright.
_KEY_FUNCTIONS = {"FastSimJob": "job_key", "ExperimentParams": "_replicate_inputs"}


def _execution_only(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "EXECUTION_ONLY"
               for t in targets):
            return {
                sub.value for sub in ast.walk(value)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            }, node
    return set(), None


def rl104_identity_leak(path, tree, imports):
    classes = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in _KEY_FUNCTIONS
    ]
    if not classes:
        return []
    allowlist, allow_node = _execution_only(tree)
    hits = []
    for cls in classes:
        key_name = _KEY_FUNCTIONS[cls.name]
        key_fn = next(
            (node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == key_name),
            None,
        )
        if key_fn is None:
            hits.append((cls.lineno, f"RL104 identity dataclass {cls.name!r} "
                         f"has no {key_name!r} key function in its module; "
                         "nothing ties its fields to an artifact key"))
            continue
        if allow_node is None:
            hits.append((cls.lineno, f"RL104 module defines identity "
                         f"dataclass {cls.name!r} but no module-level "
                         "EXECUTION_ONLY frozenset"))
            continue
        fields = {
            stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }
        popped = {}
        for node in ast.walk(key_fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                popped.setdefault(node.args[0].value, node)
        for name, pop in popped.items():
            if name in fields and name not in allowlist:
                hits.append((pop.lineno, f"RL104 {cls.name}.{name} is popped "
                             f"out of {key_name}'s key inputs but not "
                             "declared in EXECUTION_ONLY — identity leak"))
        for name in sorted(allowlist):
            if name not in fields:
                hits.append((allow_node.lineno, f"RL104 stale EXECUTION_ONLY "
                             f"entry {name!r}: not a field of {cls.name}"))
            elif name not in popped:
                hits.append((allow_node.lineno, f"RL104 stale EXECUTION_ONLY "
                             f"entry {name!r}: {key_name} keys it after all"))
    return hits


# RL105: /dev/shm blocks survive the creating process, and no segment may
# outlive its run even when a worker crashes. Every SharedMemory(
# create=True) is dominated by a try/finally whose finally unlinks, or
# sits in an owner class whose close() unlinks (callers then hold the
# owner in a try/finally or with).
def _unlinks(body):
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unlink"
        for stmt in body
        for node in ast.walk(stmt)
    )


def _creates_segment(call, imports):
    names = chain(call.func)
    if not names or names[-1] != "SharedMemory":
        return False
    if len(names) == 1 and imports.names.get("SharedMemory") != (
        "multiprocessing.shared_memory.SharedMemory"
    ):
        return False
    return any(
        keyword.arg == "create"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def _guarded(ancestor):
    if isinstance(ancestor, ast.Try):
        return _unlinks(ancestor.finalbody)
    return isinstance(ancestor, ast.ClassDef) and any(
        isinstance(stmt, ast.FunctionDef)
        and stmt.name == "close"
        and _unlinks(stmt.body)
        for stmt in ancestor.body
    )


def rl105_shm_unlink(path, tree, imports):
    creates = [
        node for node in imports.of(ast.Call)
        if _creates_segment(node, imports)
    ]
    if not creates:
        return []
    parent = {
        child: node
        for node in imports.nodes
        for child in ast.iter_child_nodes(node)
    }
    hits = []
    for node in creates:
        ancestor = parent.get(node)
        while ancestor is not None and not _guarded(ancestor):
            ancestor = parent.get(ancestor)
        if ancestor is None:
            hits.append((node.lineno, "RL105 shared-memory segment created "
                         "without an unlink guarantee (try/finally with "
                         ".unlink(), or an owner class whose close() "
                         "unlinks)"))
    return hits


# RL106: a bare functools.lru_cache is invisible in profiles and in the
# cache.* counter namespace, so a key that stopped hitting goes unnoticed.
# repro.obs.cache.counted_cache has the same semantics plus
# cache.<name>.hit/.miss/.size telemetry.
_LRU_NAMES = frozenset({"lru_cache", "cache"})


def rl106_uncounted_cache(path, tree, imports):
    if not in_src_repro(path) or path == "src/repro/obs/cache.py":
        return []
    hits = []
    for node in imports.of(ast.ImportFrom, ast.Attribute):
        if isinstance(node, ast.ImportFrom):
            if node.module == "functools":
                hits += [
                    (node.lineno, f"RL106 'from functools import "
                     f"{alias.name}' in src/repro; use "
                     "repro.obs.cache.counted_cache")
                    for alias in node.names if alias.name in _LRU_NAMES
                ]
            continue
        names = chain(node)
        if (
            len(names) == 2
            and names[1] in _LRU_NAMES
            and imports.binds(names[0], "functools")
        ):
            hits.append((node.lineno, "RL106 bare functools.lru_cache in "
                         "src/repro; use repro.obs.cache.counted_cache so "
                         "the cache reports through obs"))
    return hits


# RL107: --profile consumers and the CI smokes key on literal telemetry
# names; a name outside segment(.segment)* (lowercase [a-z][a-z0-9_]*
# segments joined by dots, "/" reserved for the span-stack path) falls
# out of every prefix aggregation on "cache." or "kernel.". counted_cache
# names become cache.<name>.* counters, and progress/heartbeat names are
# leaf units: none of those three takes a slash. Dynamic names are out of
# static reach.
_OBS_API = frozenset(
    {"span", "count", "gauge_max", "add_duration", "progress", "heartbeat"}
)
_NO_SLASH = frozenset({"counted_cache", "progress", "heartbeat"})
_SEGMENTS = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*\Z")


def _obs_api(func, imports):
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "obs" and func.attr in _OBS_API:
            return func.attr
        if func.attr == "counted_cache":
            return "counted_cache"
    elif isinstance(func, ast.Name):
        origin = imports.names.get(func.id, "")
        if func.id in _OBS_API and origin.startswith("repro.obs"):
            return func.id
        if func.id == "counted_cache" and origin == (
            "repro.obs.cache.counted_cache"
        ):
            return "counted_cache"
    return None


def rl107_span_naming(path, tree, imports):
    hits = []
    for node in imports.of(ast.Call):
        api = _obs_api(node.func, imports)
        if api is None:
            continue
        name = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "name"), None
        )
        if not isinstance(name, ast.Constant) or not isinstance(
            name.value, str
        ):
            continue
        parts = [name.value] if api in _NO_SLASH else name.value.split("/")
        if not all(_SEGMENTS.match(part) for part in parts):
            hits.append((name.lineno, f"RL107 obs name {name.value!r} "
                         "violates the segment(.segment)* convention"))
    return hits


# RL108: a pool is more than an executor: workers swap the inherited event
# sink for a private ring, record into a scoped collector and ship
# snapshots back, and the parent merges them per completion. A second
# pool once grew a copied worker entry that drifted from the first.
# repro.fastsim.parallel.fan_out runs any units; hand them to it. (Pools
# reached through multiprocessing.get_context(...) are out of static
# reach.)
_POOLS = frozenset(
    {"concurrent.futures.ProcessPoolExecutor",
     "concurrent.futures.process.ProcessPoolExecutor",
     "multiprocessing.Pool", "multiprocessing.pool.Pool"}
)


def rl108_pool_ownership(path, tree, imports):
    if not in_src_repro(path) or path == "src/repro/fastsim/parallel.py":
        return []
    hits = []
    for node in imports.of(ast.Call):
        if isinstance(node.func, ast.Name):
            target = imports.names.get(node.func.id, "")
        else:
            names = chain(node.func)
            if len(names) < 2:
                continue
            # `import concurrent.futures` binds the dotted name whole;
            # `import multiprocessing as mp` / `from concurrent import
            # futures` bind the chain's first name.
            module = (
                imports.modules.get(".".join(names[:-1]))
                or imports.modules.get(names[0])
                or imports.names.get(names[0], "")
            )
            target = f"{module}.{names[-1]}"
        if target in _POOLS:
            hits.append((node.lineno, "RL108 process pool constructed "
                         "outside repro.fastsim.parallel; hand the units to "
                         "repro.fastsim.parallel.fan_out"))
    return hits


# RL109: gc.disable/enable/freeze/unfreeze/collect/set_threshold change
# how every later allocation behaves and must be undone on every exit
# path. The event cell's policy (collect, build unwatched, freeze for the
# query loop, restore) is one context manager in
# repro.experiments.execution; a second caller would nest wrongly with
# it. Reading the collector is free; gc.callbacks, the observer hook,
# belongs to repro.obs like the clock.
_GC_POLICY = frozenset(
    {"disable", "enable", "freeze", "unfreeze", "collect", "set_threshold"}
)


def rl109_collector_policy(path, tree, imports):
    if not in_src_repro(path):
        return []
    uses = []
    for node in imports.of(ast.ImportFrom, ast.Attribute):
        if isinstance(node, ast.ImportFrom):
            if node.module == "gc":
                uses += [(node.lineno, alias.name) for alias in node.names]
            continue
        names = chain(node)
        if len(names) == 2 and imports.binds(names[0], "gc"):
            uses.append((node.lineno, names[1]))
    hits = []
    for line, name in uses:
        if name in _GC_POLICY and path != "src/repro/experiments/execution.py":
            hits.append((line, f"RL109 'gc.{name}' outside "
                         "repro.experiments.execution, which owns the "
                         "collector policy"))
        elif name == "callbacks" and not path.startswith("src/repro/obs/"):
            hits.append((line, "RL109 'gc.callbacks' outside repro.obs, "
                         "which owns the hook"))
    return hits


CHECKS = (
    rl101_wall_clock, rl102_global_rng, rl103_dtype_literal,
    rl104_identity_leak, rl105_shm_unlink, rl106_uncounted_cache,
    rl107_span_naming, rl108_pool_ownership, rl109_collector_policy,
)


def scan(path, source, checks=CHECKS):
    """Every ``(line, message)`` the checks find in one file, by line."""
    tree = ast.parse(source, filename=path)
    imports = Imports(tree)
    return sorted(hit for check in checks for hit in check(path, tree, imports))


def row(check, name, path, source, *expected):
    """A fixture: ``source`` at ``path`` yields one hit per ``expected``
    fragment (in line order), each message containing its fragment."""
    return pytest.param(
        check, path, textwrap.dedent(source), list(expected),
        id=f"{check.__name__[:5].upper()}-{name}",
    )


IDENTITY_MODULE_OK = """
from dataclasses import dataclass

EXECUTION_ONLY = frozenset({"jobs"})

@dataclass(frozen=True)
class ExperimentParams:
    seed: int = 0
    jobs: int = 1

def _replicate_inputs(ctx):
    params = dict(ctx.params)
    params.pop("jobs", None)
    return params
"""

WALL_CLOCK_READ = """
import time

def now():
    return time.time()
"""

FIXTURES = [    # RL101
    row(rl101_wall_clock, "time-module-read", "src/repro/sim/example.py", """
        import time
        def elapsed():
            return time.perf_counter()
        """, "repro.obs"),
    row(rl101_wall_clock, "from-time-import", "src/repro/fastsim/example.py", """
        from time import perf_counter
        """, "from time import perf_counter"),
    row(rl101_wall_clock, "datetime-via-module", "src/repro/store/example.py", """
        import datetime
        def stamp():
            return datetime.datetime.now().isoformat()
        """, "now()"),
    row(rl101_wall_clock, "datetime-from-import", "src/repro/store/example.py", """
        from datetime import datetime
        def stamp():
            return datetime.now().isoformat()
        """, "now()"),
    row(rl101_wall_clock, "obs-clock-import", "src/repro/sim/example.py", """
        from repro.obs.clock import perf_counter
        def elapsed():
            return perf_counter()
        """),
    row(rl101_wall_clock, "obs-package-exempt", "src/repro/obs/example.py",
        WALL_CLOCK_READ),
    row(rl101_wall_clock, "benchmarks-exempt", "benchmarks/example.py",
        WALL_CLOCK_READ),
    # RL102
    row(rl102_global_rng, "numpy-global-draw", "src/repro/analysis/example.py", """
        import numpy as np
        def noise():
            return np.random.normal(size=8)
        """, "global RNG"),
    row(rl102_global_rng, "numpy-global-seed", "src/repro/analysis/example.py", """
        import numpy as np
        np.random.seed(0)
        """, "np.random.seed"),
    row(rl102_global_rng, "stdlib-global-shuffle", "src/repro/net/example.py", """
        import random
        def mix(items):
            random.shuffle(items)
        """, "random.shuffle"),
    row(rl102_global_rng, "generators-pass", "src/repro/analysis/example.py", """
        import numpy as np
        import random
        def noise(seed):
            rng = np.random.default_rng(seed)
            local = random.Random(seed)
            return rng.normal(size=8), local.random()
        """),
    # RL103
    row(rl103_dtype_literal, "numpy-dtype-attribute", "src/repro/fastsim/example.py", """
        import numpy as np
        def ranks(total):
            return np.empty(total, dtype=np.int64)
        """, "precision"),
    row(rl103_dtype_literal, "dtype-string", "src/repro/fastsim/example.py", """
        import numpy as np
        def draws(total):
            return np.zeros(total, dtype="float64")
        """, "'float64'"),
    row(rl103_dtype_literal, "precision-constants", "src/repro/fastsim/example.py", """
        import numpy as np
        from repro.fastsim.precision import INDEX_DTYPE
        def ranks(total):
            return np.empty(total, dtype=INDEX_DTYPE)
        """),
    row(rl103_dtype_literal, "precision-module-exempt", "src/repro/fastsim/precision.py", """
        import numpy as np
        INDEX_DTYPE = np.dtype(np.int64)
        """),
    row(rl103_dtype_literal, "outside-fastsim", "src/repro/analysis/example.py", """
        import numpy as np
        def histogram(n):
            return np.zeros(n, dtype=np.int64)
        """),
    # RL104
    row(rl104_identity_leak, "undeclared-pop", "src/repro/experiments/example.py",
        IDENTITY_MODULE_OK.replace(
            'EXECUTION_ONLY = frozenset({"jobs"})', "EXECUTION_ONLY = frozenset()"
        ), "identity leak"),
    row(rl104_identity_leak, "missing-allowlist", "src/repro/experiments/example.py",
        IDENTITY_MODULE_OK.replace('EXECUTION_ONLY = frozenset({"jobs"})\n', ""),
        "no module-level EXECUTION_ONLY"),
    row(rl104_identity_leak, "missing-key-function", "src/repro/experiments/example.py",
        IDENTITY_MODULE_OK.split("def _replicate_inputs")[0], "key function"),
    row(rl104_identity_leak, "stale-entry", "src/repro/experiments/example.py",
        IDENTITY_MODULE_OK.replace(
            'frozenset({"jobs"})', 'frozenset({"jobs", "ghost"})'
        ), "'ghost'"),
    row(rl104_identity_leak, "keyed-after-all", "src/repro/experiments/example.py",
        IDENTITY_MODULE_OK.replace('params.pop("jobs", None)\n    ', ""),
        "keys it after all"),
    row(rl104_identity_leak, "declared", "src/repro/experiments/example.py",
        IDENTITY_MODULE_OK),
    # RL105
    row(rl105_shm_unlink, "unguarded-create", "src/repro/fastsim/example.py", """
        from multiprocessing.shared_memory import SharedMemory
        def share(n):
            return SharedMemory(create=True, size=n)
        """, "unlink"),
    row(rl105_shm_unlink, "try-finally-unlink", "src/repro/fastsim/example.py", """
        from multiprocessing.shared_memory import SharedMemory
        def share(n):
            segment = None
            try:
                segment = SharedMemory(create=True, size=n)
                return bytes(segment.buf)
            finally:
                if segment is not None:
                    segment.close()
                    segment.unlink()
        """),
    row(rl105_shm_unlink, "owner-class-close", "src/repro/fastsim/example.py", """
        from multiprocessing import shared_memory
        class Arena:
            def share(self, n):
                self.segment = shared_memory.SharedMemory(
                    create=True, size=n
                )
            def close(self):
                self.segment.close()
                self.segment.unlink()
        """),
    row(rl105_shm_unlink, "attach-without-create", "src/repro/fastsim/example.py", """
        from multiprocessing.shared_memory import SharedMemory
        def attach(name):
            return SharedMemory(name=name)
        """),
    # RL106
    row(rl106_uncounted_cache, "functools-import", "src/repro/analysis/example.py", """
        from functools import lru_cache
        @lru_cache(maxsize=64)
        def weights(alpha, n):
            return alpha * n
        """, "counted_cache"),
    row(rl106_uncounted_cache, "functools-attribute", "src/repro/analysis/example.py", """
        import functools
        @functools.lru_cache(maxsize=64)
        def weights(alpha, n):
            return alpha * n
        """, "bare functools.lru_cache"),
    row(rl106_uncounted_cache, "counted-cache", "src/repro/analysis/example.py", """
        from repro.obs.cache import counted_cache
        @counted_cache("zipf_weights", maxsize=64)
        def weights(alpha, n):
            return alpha * n
        """),
    row(rl106_uncounted_cache, "obs-cache-exempt", "src/repro/obs/cache.py", """
        from functools import lru_cache
        """),
    # RL107
    row(rl107_span_naming, "bad-span", "src/repro/analysis/example.py", """
        from repro import obs
        def run():
            with obs.span("Calibrate Churn!"):
                pass
        """, "segment(.segment)*"),
    row(rl107_span_naming, "bad-counter-from-import", "src/repro/store/example.py", """
        from repro.obs import count
        def record():
            count("cache-miss")
        """, "'cache-miss'"),
    row(rl107_span_naming, "slash-in-counted-cache", "src/repro/analysis/example.py", """
        from repro.obs.cache import counted_cache
        @counted_cache("zipf/weights", maxsize=8)
        def weights(alpha):
            return alpha
        """, "'zipf/weights'"),
    row(rl107_span_naming, "conventional-names", "src/repro/analysis/example.py", """
        from repro import obs
        from repro.obs.cache import counted_cache
        @counted_cache("zipf_weights", maxsize=8)
        def weights(alpha):
            return alpha
        def run():
            with obs.span("calibrate.churn", peers=5000):
                obs.count("cache.store.sweep_cell.miss")
            obs.add_duration("kernel.resolve/draws", 0.5)
        """),
    row(rl107_span_naming, "dynamic-names", "src/repro/store/example.py", """
        from repro import obs
        def record(name):
            obs.count(name)
            obs.count(f"cache.{name}.hit")
        """),
    row(rl107_span_naming, "bad-progress", "src/repro/experiments/example.py", """
        from repro import obs
        def report(done):
            obs.progress("Sweep Cells!", done, total=6)
        """, "segment(.segment)*"),
    # progress units are leaf names: a slash is a naming bug, not a path
    row(rl107_span_naming, "slash-in-heartbeat", "src/repro/fastsim/example.py", """
        from repro.obs import heartbeat
        def run():
            beat = heartbeat("kernel/rounds", total=10)
        """, "'kernel/rounds'"),
    row(rl107_span_naming, "conventional-progress", "src/repro/experiments/example.py", """
        from repro import obs
        from repro.obs import heartbeat
        def run(done, total):
            obs.progress("sweep.cells", done, total=total)
            beat = heartbeat("kernel.rounds", total=total)
        """),
    # RL108
    row(rl108_pool_ownership, "pool-from-import", "src/repro/experiments/example.py", """
        from concurrent.futures import ProcessPoolExecutor
        def fan(units):
            with ProcessPoolExecutor(max_workers=2) as pool:
                return list(pool.map(run, units))
        """, "fan_out"),
    row(rl108_pool_ownership, "pool-via-module", "src/repro/experiments/example.py", """
        import concurrent.futures
        import multiprocessing as mp
        def fan(units):
            with concurrent.futures.ProcessPoolExecutor() as pool:
                pool.map(run, units)
            return mp.Pool(2).map(run, units)
        """, "fan_out", "fan_out"),
    row(rl108_pool_ownership, "parallel-module-owns", "src/repro/fastsim/parallel.py", """
        from concurrent.futures import ProcessPoolExecutor
        def fan_out(units, workers, finish, progress):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for position, result in enumerate(pool.map(run, units)):
                    finish(position, result)
        """),
    row(rl108_pool_ownership, "fan-out-caller", "src/repro/experiments/example.py", """
        from concurrent.futures import ThreadPoolExecutor
        from repro.fastsim import parallel
        def replicate(contexts, workers, finish):
            parallel.fan_out(contexts, workers, finish, "replicates")
            return ThreadPoolExecutor(max_workers=1)
        """),
    # RL109
    row(rl109_collector_policy, "switches-via-module", "src/repro/pdht/example.py", """
        import gc
        def build(params):
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                return make_network(params)
            finally:
                gc.collect()
                if was_enabled:
                    gc.enable()
        """, "repro.experiments.execution", "gc.collect", "gc.enable"),
    row(rl109_collector_policy, "switch-from-import", "src/repro/fastsim/example.py", """
        from gc import freeze, get_freeze_count
        """, "gc.freeze"),
    row(rl109_collector_policy, "callbacks-outside-obs", "src/repro/experiments/execution.py", """
        import gc
        gc.callbacks.append(print)
        """, "repro.obs"),
    row(rl109_collector_policy, "policy-owner", "src/repro/experiments/execution.py", """
        import gc
        def long_lived(build):
            gc.collect()
            gc.disable()
            try:
                built = build()
                gc.freeze()
                return built
            finally:
                gc.unfreeze()
                gc.enable()
        """),
    row(rl109_collector_policy, "observer-owner", "src/repro/obs/collector.py", """
        import gc
        def enable(hook):
            gc.callbacks.append(hook)
        """),
    row(rl109_collector_policy, "readers", "src/repro/sim/example.py", """
        import gc
        def heap_state():
            return gc.isenabled(), gc.get_freeze_count(), gc.get_count()
        """),
]


@pytest.mark.parametrize("check, path, source, expected_hits", FIXTURES)
def test_fixture(check, path, source, expected_hits):
    hits = scan(path, source, checks=[check])
    assert len(hits) == len(expected_hits), hits
    rule_id = check.__name__[:5].upper()
    for (_line, message), fragment in zip(hits, expected_hits):
        assert message.startswith(rule_id + " "), message
        assert fragment in message, message


def test_every_check_runs_on_the_tree_and_has_fixtures():
    # A check missing from CHECKS would pass its fixtures and never run.
    assert {param.values[0] for param in FIXTURES} == set(CHECKS)
    assert [check.__name__[:5] for check in CHECKS] == [
        f"rl{n}" for n in range(101, 110)
    ]


def test_hits_are_sorted_and_located():
    source = "import numpy as np\n\nb = np.random.normal()\na = np.random.random()\n"
    hits = scan("tests/example.py", source)
    assert [line for line, _ in hits] == [3, 4]
    assert all(message.startswith("RL102 ") for _, message in hits)


def test_unparseable_file_fails_naming_it():
    with pytest.raises(SyntaxError) as error:
        scan("tools/broken.py", "def broken(:\n    pass\n")
    assert error.value.filename == "tools/broken.py"


def python_files():
    return sorted(
        Path(dirpath, filename)
        for top in SCANNED
        for dirpath, _dirnames, filenames in os.walk(REPO_ROOT / top)
        for filename in filenames
        if filename.endswith(".py")
    )


def test_real_tree_is_clean():
    files = python_files()
    violations = []
    for file in files:
        path = file.relative_to(REPO_ROOT).as_posix()
        source = file.read_text(encoding="utf-8")
        violations += [
            f"{path}:{line}: {message}" for line, message in scan(path, source)
        ]
    assert len(files) > 200
    assert violations == [], "\n".join(violations)
