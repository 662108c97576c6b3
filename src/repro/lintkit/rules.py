"""The repo's invariant catalog, as executable rules RL101-RL109.

Each rule encodes one cross-cutting invariant prior PRs established by
convention; the class docstring is the rationale ``--explain`` prints.
The catalog:

=======  ============================  =========================================
id       name                          invariant
=======  ============================  =========================================
RL101    no-wall-clock-in-kernel       wall-clock reads live in ``repro.obs``
RL102    no-global-rng                 RNG is a threaded seeded ``Generator``
RL103    dtype-literal-in-hot-path     fastsim dtypes come from ``precision``
RL104    identity-leak                 params reach the key or are EXECUTION_ONLY
RL105    shm-unlink-in-finally         shm segments cannot leak on any path
RL106    uncounted-lru-cache           caches report through ``counted_cache``
RL107    span-naming                   obs names follow ``segment(.segment)*``
RL108    pool-ownership                process pools live in ``fastsim.parallel``
RL109    collector-policy-ownership    one module steers the cyclic collector
=======  ============================  =========================================
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from repro.lintkit.engine import (
    FileContext,
    Project,
    Rule,
    parents,
    register_rule,
)

__all__ = [
    "NoWallClockInKernel",
    "NoGlobalRng",
    "DtypeLiteralInHotPath",
    "IdentityLeak",
    "ShmUnlinkInFinally",
    "UncountedLruCache",
    "SpanNaming",
    "PoolOwnership",
    "CollectorPolicyOwnership",
]


def _attribute_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty if not a pure name chain."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        names.reverse()
        return names
    return []


def _in_src_repro(path: str) -> bool:
    return path.startswith("src/repro/")


# ---------------------------------------------------------------------
# RL101
# ---------------------------------------------------------------------
@register_rule
class NoWallClockInKernel(Rule):
    """Simulation and storage code must not read the wall clock directly.

    Seeded runs are pinned bit-identical (PR 4/8 captures); a wall-clock
    read in simulation code is one refactor away from leaking into a
    result or an artifact key. All sanctioned clock reads live in
    ``repro.obs`` (``repro.obs.clock`` re-exports ``perf_counter`` and
    ``utc_now_iso``), so one grep of that package audits every timing
    source. Benchmarks and tests time whatever they like.
    """

    id = "RL101"
    name = "no-wall-clock-in-kernel"
    summary = (
        "wall-clock read outside repro.obs; import the clock from "
        "repro.obs.clock instead"
    )
    ok_example = (
        "from repro.obs.clock import perf_counter\n"
        "started = perf_counter()"
    )
    bad_example = "import time\nstarted = time.time()"

    _TIME_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
        }
    )
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def scope(self, path: str) -> bool:
        return _in_src_repro(path) and not path.startswith("src/repro/obs/")

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in self._TIME_ATTRS:
                ctx.report(
                    self,
                    node,
                    f"'from time import {alias.name}' outside repro.obs; "
                    f"import it from repro.obs.clock",
                )

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        chain = _attribute_chain(node)
        if len(chain) < 2:
            return
        *head, attr = chain
        if attr in self._TIME_ATTRS and ctx.binds_module(head[-1], "time"):
            ctx.report(
                self,
                node,
                f"'time.{attr}' outside repro.obs; use repro.obs.clock",
            )
        elif attr in self._DATETIME_ATTRS and head[-1] in ("datetime", "date"):
            base = head[-1]
            # from datetime import datetime/date -> datetime.now()/date.today()
            from_imported = ctx.from_imports.get(base, "") in (
                "datetime.datetime",
                "datetime.date",
            )
            # import datetime [as _dt] -> _dt.datetime.now()/datetime.date.today()
            via_module = len(head) >= 2 and ctx.binds_module(
                head[-2], "datetime"
            )
            bare_module = len(head) == 1 and ctx.binds_module(base, "datetime")
            if from_imported or via_module or bare_module:
                ctx.report(
                    self,
                    node,
                    f"'datetime ...{attr}()' outside repro.obs; use "
                    f"repro.obs.clock.utc_now_iso",
                )


# ---------------------------------------------------------------------
# RL102
# ---------------------------------------------------------------------
@register_rule
class NoGlobalRng(Rule):
    """Randomness must flow through an explicitly seeded, threaded
    ``numpy.random.Generator`` (or stdlib ``random.Random`` instance).

    Module-level RNG calls (``np.random.normal``, ``random.shuffle``)
    draw from hidden process-global state: two call sites interleave
    differently under refactors, imports, or worker pools, silently
    breaking the bit-identical seeded captures the repo pins. Seeding
    the global (``np.random.seed``) is equally banned — it mutates
    state every other module shares.
    """

    id = "RL102"
    name = "no-global-rng"
    summary = (
        "module-level RNG call draws from hidden global state; thread a "
        "seeded np.random.Generator (or random.Random) instead"
    )
    ok_example = (
        "rng = np.random.default_rng(seed)\n"
        "values = rng.normal(size=8)"
    )
    bad_example = "values = np.random.normal(size=8)"

    #: Constructors and seeding machinery — fine to touch on the module.
    _NUMPY_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    _STDLIB_ALLOWED = frozenset({"Random", "SystemRandom"})

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        chain = _attribute_chain(node.func)
        if len(chain) < 2:
            return
        *head, attr = chain
        if head[-1] == "random" and len(head) >= 2:
            # np.random.X(...) / numpy.random.X(...)
            if (
                ctx.binds_module(head[-2], "numpy")
                and attr not in self._NUMPY_ALLOWED
            ):
                ctx.report(
                    self,
                    node,
                    f"'{'.'.join(chain)}' uses numpy's global RNG; draw "
                    f"from a threaded np.random.Generator",
                )
        elif (
            len(chain) == 2
            and ctx.binds_module(head[0], "random")
            and attr not in self._STDLIB_ALLOWED
        ):
            ctx.report(
                self,
                node,
                f"'random.{attr}' uses the stdlib global RNG; use a "
                f"seeded random.Random instance",
            )


# ---------------------------------------------------------------------
# RL103
# ---------------------------------------------------------------------
@register_rule
class DtypeLiteralInHotPath(Rule):
    """Kernel dtypes are policy, not literals (PR 8).

    ``repro.fastsim.precision`` is the single module allowed to name
    concrete dtypes: ``StatePrecision`` policies size the state arrays
    and the ``INDEX_DTYPE``/``PROB_DTYPE`` constants size the
    precision-independent draw pipeline. A bare ``np.float64`` (or a
    ``dtype="int64"`` string) elsewhere in ``fastsim/`` either fights
    the ``--precision`` policy or silently widens slim runs; route it
    through the policy module so one file decides every width.
    """

    id = "RL103"
    name = "dtype-literal-in-hot-path"
    summary = (
        "bare dtype literal in fastsim; take dtypes from "
        "repro.fastsim.precision (StatePrecision or INDEX_DTYPE/PROB_DTYPE)"
    )
    ok_example = (
        "from repro.fastsim.precision import INDEX_DTYPE\n"
        "ranks = np.empty(total, dtype=INDEX_DTYPE)"
    )
    bad_example = "ranks = np.empty(total, dtype=np.int64)"

    _DTYPE_NAMES = frozenset(
        {
            "float16",
            "float32",
            "float64",
            "int8",
            "int16",
            "int32",
            "int64",
            "uint8",
            "uint16",
            "uint32",
            "uint64",
            "complex64",
            "complex128",
        }
    )

    def scope(self, path: str) -> bool:
        return path.startswith("src/repro/fastsim/") and not path.endswith(
            "/precision.py"
        )

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        chain = _attribute_chain(node)
        if (
            len(chain) == 2
            and chain[1] in self._DTYPE_NAMES
            and ctx.binds_module(chain[0], "numpy")
        ):
            ctx.report(
                self,
                node,
                f"bare '{'.'.join(chain)}' in fastsim; use the "
                f"repro.fastsim.precision policy/constants",
            )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        for keyword in node.keywords:
            if (
                keyword.arg == "dtype"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
                and keyword.value.value in self._DTYPE_NAMES
            ):
                ctx.report(
                    self,
                    keyword.value,
                    f"dtype string literal {keyword.value.value!r} in "
                    f"fastsim; use the repro.fastsim.precision "
                    f"policy/constants",
                )


# ---------------------------------------------------------------------
# RL104
# ---------------------------------------------------------------------
@register_rule
class IdentityLeak(Rule):
    """Every result-affecting parameter must reach the artifact key;
    execution details must be declared, not silently dropped.

    PR 7/8 split job fields into two kinds: inputs that change results
    (they *must* land in ``job_key``/the replicate key, or stale
    artifacts get served) and execution details like ``jobs`` or
    ``shared_memory`` (they *must not*, or identical results get
    recomputed). The split lives in code as ``<keyfn>`` popping fields
    out of the key inputs; this rule cross-references the dataclass
    fields, the pops, and a mandatory module-level ``EXECUTION_ONLY``
    frozenset: a popped field missing from the allowlist is a leak, an
    allowlisted field that is not popped (or no longer exists) is
    stale, and a module defining an identity dataclass without the
    allowlist fails outright.
    """

    id = "RL104"
    name = "identity-leak"
    summary = (
        "identity dataclass field excluded from its artifact key without "
        "an EXECUTION_ONLY declaration"
    )
    ok_example = (
        "EXECUTION_ONLY = frozenset({\"jobs\"})\n"
        "@dataclass(frozen=True)\n"
        "class ExperimentParams:\n"
        "    seed: int = 0\n"
        "    jobs: int = 1\n"
        "def _replicate_inputs(ctx):\n"
        "    params = ctx.params.to_dict()\n"
        "    params.pop(\"jobs\", None)   # declared execution detail\n"
        "    return params"
    )
    bad_example = (
        "@dataclass(frozen=True)\n"
        "class ExperimentParams:\n"
        "    seed: int = 0\n"
        "    jobs: int = 1\n"
        "def _replicate_inputs(ctx):\n"
        "    params = ctx.params.to_dict()\n"
        "    params.pop(\"jobs\", None)   # undeclared: RL104\n"
        "    return params"
    )

    #: identity dataclass -> the function whose pops define exclusions.
    TARGETS = {
        "FastSimJob": "job_key",
        "ExperimentParams": "_replicate_inputs",
    }

    def finish(self, project: Project) -> None:
        for ctx in project.contexts():
            classes = {
                node.name: node
                for node in ctx.tree.body
                if isinstance(node, ast.ClassDef) and node.name in self.TARGETS
            }
            if not classes:
                continue
            allowlist, allow_node = self._execution_only(ctx)
            for class_name, class_node in classes.items():
                fields = self._dataclass_fields(class_node)
                key_fn = self._find_function(ctx, self.TARGETS[class_name])
                if key_fn is None:
                    ctx.report(
                        self,
                        class_node,
                        f"identity dataclass {class_name!r} has no "
                        f"{self.TARGETS[class_name]!r} key function in its "
                        f"module; nothing ties its fields to an artifact key",
                    )
                    continue
                if allow_node is None:
                    ctx.report(
                        self,
                        class_node,
                        f"module defines identity dataclass {class_name!r} "
                        f"but no module-level EXECUTION_ONLY frozenset",
                    )
                    continue
                popped = self._popped_names(key_fn)
                for name, pop_node in popped.items():
                    if name in fields and name not in allowlist:
                        ctx.report(
                            self,
                            pop_node,
                            f"{class_name}.{name} is popped out of "
                            f"{key_fn.name}'s key inputs but not declared "
                            f"in EXECUTION_ONLY — identity leak",
                        )
                for name in sorted(allowlist):
                    if name not in fields:
                        ctx.report(
                            self,
                            allow_node,
                            f"stale EXECUTION_ONLY entry {name!r}: not a "
                            f"field of {class_name}",
                        )
                    elif name not in popped:
                        ctx.report(
                            self,
                            allow_node,
                            f"stale EXECUTION_ONLY entry {name!r}: "
                            f"{key_fn.name} keys it after all",
                        )

    @staticmethod
    def _dataclass_fields(node: ast.ClassDef) -> set[str]:
        return {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }

    @staticmethod
    def _find_function(
        ctx: FileContext, name: str
    ) -> Optional[ast.FunctionDef]:
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    @staticmethod
    def _execution_only(
        ctx: FileContext,
    ) -> tuple[set[str], Optional[ast.AST]]:
        for node in ctx.tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "EXECUTION_ONLY"
                ):
                    return IdentityLeak._string_elements(value), node
        return set(), None

    @staticmethod
    def _string_elements(node: Optional[ast.expr]) -> set[str]:
        values: set[str] = set()
        if node is None:
            return values
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                values.add(sub.value)
        return values

    @staticmethod
    def _popped_names(fn: ast.FunctionDef) -> dict[str, ast.Call]:
        popped: dict[str, ast.Call] = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                popped.setdefault(node.args[0].value, node)
        return popped


# ---------------------------------------------------------------------
# RL105
# ---------------------------------------------------------------------
@register_rule
class ShmUnlinkInFinally(Rule):
    """A created shared-memory segment must be impossible to leak.

    ``/dev/shm`` blocks survive the creating process; PR 8's contract
    is that no segment outlives its run even when a worker crashes.
    That means every ``SharedMemory(create=True)`` call site must be
    dominated by a cleanup that always runs: either a ``try/finally``
    whose ``finally`` unlinks, or creation inside an arena-style owner
    class whose ``close()`` method unlinks (callers then hold the arena
    in a ``try/finally``/``with``).
    """

    id = "RL105"
    name = "shm-unlink-in-finally"
    summary = (
        "shared-memory segment created without an unlink guarantee "
        "(try/finally with .unlink(), or an owner class whose close() "
        "unlinks)"
    )
    ok_example = (
        "segment = None\n"
        "try:\n"
        "    segment = SharedMemory(create=True, size=n)\n"
        "    ...\n"
        "finally:\n"
        "    if segment is not None:\n"
        "        segment.close()\n"
        "        segment.unlink()"
    )
    bad_example = "segment = SharedMemory(create=True, size=n)\n..."

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not self._creates_segment(node, ctx):
            return
        for ancestor in parents(node):
            if isinstance(ancestor, ast.Try) and self._unlinks(
                ancestor.finalbody
            ):
                return
            if isinstance(ancestor, ast.ClassDef) and self._class_close_unlinks(
                ancestor
            ):
                return
        ctx.report(self, node)

    @staticmethod
    def _creates_segment(node: ast.Call, ctx: FileContext) -> bool:
        chain = _attribute_chain(node.func)
        if not chain or chain[-1] != "SharedMemory":
            return False
        if len(chain) == 1 and ctx.from_imports.get("SharedMemory", "") != (
            "multiprocessing.shared_memory.SharedMemory"
        ):
            return False
        return any(
            keyword.arg == "create"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in node.keywords
        )

    @staticmethod
    def _unlinks(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unlink"
                ):
                    return True
        return False

    @classmethod
    def _class_close_unlinks(cls, class_node: ast.ClassDef) -> bool:
        for stmt in class_node.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == "close"
                and cls._unlinks(stmt.body)
            ):
                return True
        return False


# ---------------------------------------------------------------------
# RL106
# ---------------------------------------------------------------------
@register_rule
class UncountedLruCache(Rule):
    """Every cache in ``src/repro`` reports hits and misses through obs.

    PR 7 demoted the in-process caches to an L1 in front of the
    artifact store; a bare ``functools.lru_cache`` is invisible in
    profiles and in the ``cache.*`` counter namespace, so cache
    regressions (a key that stopped hitting) go unnoticed. Wrap with
    ``repro.obs.cache.counted_cache(name, maxsize)`` — same semantics,
    plus ``cache.<name>.hit/.miss/.size`` telemetry.
    """

    id = "RL106"
    name = "uncounted-lru-cache"
    summary = (
        "bare functools.lru_cache in src/repro; use "
        "repro.obs.cache.counted_cache so the cache reports through obs"
    )
    ok_example = (
        "from repro.obs.cache import counted_cache\n"
        "@counted_cache(\"zipf_weights\", maxsize=64)\n"
        "def weights(alpha, n): ..."
    )
    bad_example = (
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=64)\n"
        "def weights(alpha, n): ..."
    )

    _NAMES = frozenset({"lru_cache", "cache"})

    def scope(self, path: str) -> bool:
        return _in_src_repro(path) and path != "src/repro/obs/cache.py"

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module != "functools":
            return
        for alias in node.names:
            if alias.name in self._NAMES:
                ctx.report(
                    self,
                    node,
                    f"'from functools import {alias.name}' in src/repro; "
                    f"use repro.obs.cache.counted_cache",
                )

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        chain = _attribute_chain(node)
        if (
            len(chain) == 2
            and chain[1] in self._NAMES
            and ctx.binds_module(chain[0], "functools")
        ):
            ctx.report(self, node)


# ---------------------------------------------------------------------
# RL107
# ---------------------------------------------------------------------
@register_rule
class SpanNaming(Rule):
    """Telemetry names are a queryable namespace, not free text.

    ``--profile`` consumers and the CI single-path and resume smokes key
    on literal span/counter names (``cache.store.sweep_cell.miss``);
    a name outside the ``segment(.segment)*`` convention (lowercase
    ``[a-z][a-z0-9_]*`` segments joined by dots, ``/`` reserved for the
    span-stack path separator) silently falls out of every aggregation
    that prefixes-matches on ``cache.`` or ``kernel.``. The same
    convention covers ``counted_cache`` names, which become
    ``cache.<name>.*`` counters, and the flight recorder's
    ``progress``/``heartbeat`` names, which land in event streams and
    OpenMetrics exports keyed the same way (neither takes a slash:
    progress units are leaf names, never span paths).
    """

    id = "RL107"
    name = "span-naming"
    summary = (
        "obs span/counter/gauge name violates the segment(.segment)* "
        "convention"
    )
    ok_example = "with obs.span(\"calibrate.churn\", peers=5000): ..."
    bad_example = "with obs.span(\"Calibrate Churn!\"): ..."

    _API = frozenset(
        {
            "span",
            "count",
            "gauge_max",
            "add_duration",
            "progress",
            "heartbeat",
        }
    )
    #: APIs whose names are leaf identifiers, never span-stack paths —
    #: a ``/`` in these is a naming bug, not nesting.
    _NO_SLASH = frozenset({"counted_cache", "progress", "heartbeat"})
    _SEGMENT = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*\Z")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        name_arg = self._obs_name_argument(node, ctx)
        if name_arg is None:
            return
        literal, allow_slash = name_arg
        if not isinstance(literal, ast.Constant) or not isinstance(
            literal.value, str
        ):
            return  # dynamic names are out of static reach
        value = literal.value
        parts = value.split("/") if allow_slash else [value]
        if not all(self._SEGMENT.match(part) for part in parts):
            ctx.report(
                self,
                literal,
                f"obs name {value!r} violates the segment(.segment)* "
                f"convention",
            )

    def _obs_name_argument(
        self, node: ast.Call, ctx: FileContext
    ) -> Optional[tuple[ast.expr, bool]]:
        func = node.func
        api_name: Optional[str] = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "obs" and func.attr in self._API:
                api_name = func.attr
            elif func.attr == "counted_cache":
                api_name = "counted_cache"
        elif isinstance(func, ast.Name):
            origin = ctx.from_imports.get(func.id, "")
            if func.id in self._API and origin.startswith("repro.obs"):
                api_name = func.id
            elif (
                func.id == "counted_cache"
                and origin == "repro.obs.cache.counted_cache"
            ):
                api_name = "counted_cache"
        if api_name is None:
            return None
        allow_slash = api_name not in self._NO_SLASH
        if node.args:
            return node.args[0], allow_slash
        for keyword in node.keywords:
            if keyword.arg == "name":
                return keyword.value, allow_slash
        return None


# ---------------------------------------------------------------------
# RL108
# ---------------------------------------------------------------------
@register_rule
class PoolOwnership(Rule):
    """``src/`` has one process pool, and ``fastsim.parallel`` owns it.

    A pool is more than constructing an executor: workers must swap
    the inherited event sink for a private ring, record into a scoped
    collector, ship snapshot and events back, and the parent must merge
    them per completion and tick progress. The Experiment API once grew
    a second pool whose worker entry was a line-for-line copy of the
    first — and the copies drifted (one saved results per completion,
    the other only after the last unit). ``repro.fastsim.parallel.fan_out``
    runs any sequence of picklable units with a ``.run()``; hand it the
    units instead of constructing a pool. (Pools reached through a
    ``multiprocessing.get_context(...)`` call are out of static reach.)
    """

    id = "RL108"
    name = "pool-ownership"
    summary = (
        "process pool constructed outside repro.fastsim.parallel; hand "
        "the units to repro.fastsim.parallel.fan_out"
    )
    ok_example = (
        "from repro.fastsim import parallel\n"
        "parallel.fan_out(units, workers, finish, \"sweep.cells\")"
    )
    bad_example = (
        "import multiprocessing\n"
        "with multiprocessing.Pool(4) as pool: ..."
    )

    _POOLS = frozenset(
        {
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.process.ProcessPoolExecutor",
            "multiprocessing.Pool",
            "multiprocessing.pool.Pool",
        }
    )

    def scope(self, path: str) -> bool:
        return _in_src_repro(path) and path != "src/repro/fastsim/parallel.py"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if isinstance(node.func, ast.Name):
            target = ctx.from_imports.get(node.func.id, "")
        else:
            chain = _attribute_chain(node.func)
            if len(chain) < 2:
                return
            # ``import concurrent.futures`` binds the dotted name whole;
            # ``import multiprocessing as mp`` / ``from concurrent import
            # futures`` bind the chain's first name.
            prefix = ".".join(chain[:-1])
            module = (
                ctx.module_aliases.get(prefix)
                or ctx.module_aliases.get(chain[0])
                or ctx.from_imports.get(chain[0], "")
            )
            target = f"{module}.{chain[-1]}"
        if target in self._POOLS:
            ctx.report(self, node)


# ---------------------------------------------------------------------
# RL109
# ---------------------------------------------------------------------
@register_rule
class CollectorPolicyOwnership(Rule):
    """The cyclic collector's process-global state has one owner.

    ``gc.disable`` / ``enable`` / ``freeze`` / ``unfreeze`` / ``collect``
    / ``set_threshold`` change how every later allocation in the process
    behaves, and each must be undone on every exit path or the next
    caller inherits a frozen heap or a collector that is off. The event
    substrate's policy (collect, build with collection off, freeze for
    the query loop, restore) is one context manager in
    ``repro.experiments.execution``; a second caller toggling the same
    switches would nest wrongly with it. Reading (``gc.isenabled``,
    ``gc.get_freeze_count``) is free everywhere; ``gc.callbacks`` — the
    observer hook — belongs to ``repro.obs``, like the clock.
    """

    id = "RL109"
    name = "collector-policy-ownership"
    summary = (
        "cyclic-collector state changed outside "
        "repro.experiments.execution (gc.callbacks: outside repro.obs)"
    )
    ok_example = "import gc\nwas_enabled = gc.isenabled()"
    bad_example = "import gc\ngc.disable()"

    _POLICY_OWNER = "src/repro/experiments/execution.py"
    _OBSERVER_OWNER = "src/repro/obs/"
    _POLICY = frozenset(
        {"disable", "enable", "freeze", "unfreeze", "collect", "set_threshold"}
    )

    def scope(self, path: str) -> bool:
        return _in_src_repro(path)

    def _check(self, name: str, node: ast.AST, ctx: FileContext) -> None:
        if name in self._POLICY and ctx.path != self._POLICY_OWNER:
            ctx.report(
                self,
                node,
                f"'gc.{name}' outside repro.experiments.execution, which "
                f"owns the collector policy",
            )
        elif name == "callbacks" and not ctx.path.startswith(
            self._OBSERVER_OWNER
        ):
            ctx.report(
                self, node, "'gc.callbacks' outside repro.obs, which owns the hook"
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module == "gc":
            for alias in node.names:
                self._check(alias.name, node, ctx)

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        chain = _attribute_chain(node)
        if len(chain) == 2 and ctx.binds_module(chain[0], "gc"):
            self._check(chain[1], node, ctx)
