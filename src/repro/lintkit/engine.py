"""Single-pass AST lint driver: parse once, dispatch to every rule.

The framework half of :mod:`repro.lintkit`. A :class:`Rule` subclass
declares ``visit_<NodeType>`` handlers; the driver parses each file
exactly once, walks the tree exactly once, and dispatches every node to
every rule that registered a handler for its type — adding a rule never
adds a parse or a walk. Cross-file rules (the identity-leak check)
implement :meth:`Rule.finish`, which runs after all files are parsed
and may report into any of them.

Suppressions are inline comments on the finding's line::

    segment = shared_memory.SharedMemory(create=True)  # lint: allow[RL105] arena owns it

The reason text after the bracket is mandatory — a bare ``allow`` is
itself a finding (:data:`BAD_SUPPRESSION`), as is an unknown rule id
(:data:`UNKNOWN_SUPPRESSION`), so suppressions stay auditable. The
meta findings are not themselves suppressible.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Callable, Iterable, Optional

__all__ = [
    "BAD_SUPPRESSION",
    "UNKNOWN_SUPPRESSION",
    "Finding",
    "FileContext",
    "Project",
    "Rule",
    "RULES",
    "register_rule",
    "rule_ids",
    "lint_sources",
    "lint_paths",
]

#: Meta finding id: a ``# lint: allow[...]`` comment with no reason.
BAD_SUPPRESSION = "RL001"
#: Meta finding id: a suppression naming a rule id that does not exist.
UNKNOWN_SUPPRESSION = "RL002"

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(.*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class _Suppression:
    ids: tuple[str, ...]
    reason: str
    line: int


class FileContext:
    """Everything a rule may need while visiting one file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        #: Normalised posix-style path; rules scope on it.
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.findings: list[Finding] = []
        self.suppressions: dict[int, _Suppression] = _parse_suppressions(source)
        #: Name -> module for ``import x [as y]`` bindings.
        self.module_aliases: dict[str, str] = {}
        #: Name -> "module.attr" for ``from x import a [as b]`` bindings.
        self.from_imports: dict[str, str] = {}
        self._collect_imports(tree)

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # -- helpers rules lean on ----------------------------------------
    def binds_module(self, name: str, module: str) -> bool:
        """Whether ``name`` refers to ``module`` via an import binding."""
        return self.module_aliases.get(name) == module

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def report(self, rule: "Rule", node: ast.AST, message: str = "") -> None:
        self.findings.append(
            Finding(
                rule=rule.id,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message or rule.summary,
            )
        )


def parent(node: ast.AST) -> Optional[ast.AST]:
    """The node's parent, available during and after the driver's walk."""
    return getattr(node, "_lint_parent", None)


def parents(node: ast.AST) -> Iterable[ast.AST]:
    """The node's ancestor chain, innermost first."""
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (``RL``-prefixed, unique), ``name`` (a short
    kebab-case slug), ``summary`` (the one-line user-facing message),
    and the ``ok_example`` / ``bad_example`` snippets shown by
    ``--explain``. The class docstring is the rationale. ``scope``
    limits which files the rule sees; ``visit_<NodeType>`` methods
    receive every matching node of in-scope files exactly once.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    summary: str = ""
    ok_example: str = ""
    bad_example: str = ""

    def scope(self, path: str) -> bool:
        return True

    def begin_file(self, ctx: FileContext) -> None:
        """Per-file setup hook (reset per-file state here)."""

    def end_file(self, ctx: FileContext) -> None:
        """Per-file teardown hook (report file-level findings here)."""

    def finish(self, project: "Project") -> None:
        """Cross-file hook: runs once after every file is parsed."""

    @classmethod
    def rationale(cls) -> str:
        return (cls.__doc__ or "").strip()


#: The rule registry, id -> singleton instance. Populated by
#: :func:`register_rule`; :mod:`repro.lintkit.rules` fills it at import.
RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    if not cls.id or not cls.id.startswith("RL"):
        raise ValueError(f"rule {cls.__name__} needs an RLxxx id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


def rule_ids() -> list[str]:
    """Every registered rule id plus the built-in meta finding ids."""
    return sorted(RULES) + [BAD_SUPPRESSION, UNKNOWN_SUPPRESSION]


@dataclass
class Project:
    """All parsed files of one lint run, for cross-file rules."""

    files: dict[str, FileContext] = field(default_factory=dict)

    def contexts(self) -> Iterable[FileContext]:
        return self.files.values()


def _parse_suppressions(source: str) -> dict[int, _Suppression]:
    suppressions: dict[int, _Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        return suppressions
    for line, text in comments:
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        ids = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        suppressions[line] = _Suppression(
            ids=ids, reason=match.group(2).strip(), line=line
        )
    return suppressions


def _dispatch_table(
    rules: Iterable[Rule],
) -> dict[str, list[tuple[Rule, Callable]]]:
    table: dict[str, list[tuple[Rule, Callable]]] = {}
    for rule in rules:
        for attr in dir(rule):
            if attr.startswith("visit_"):
                table.setdefault(attr[len("visit_"):], []).append(
                    (rule, getattr(rule, attr))
                )
    return table


def _walk(ctx: FileContext, table: dict[str, list[tuple[Rule, Callable]]]) -> None:
    stack: list[ast.AST] = [ctx.tree]
    while stack:
        node = stack.pop()
        handlers = table.get(type(node).__name__)
        if handlers:
            for _rule, handler in handlers:
                handler(node, ctx)
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]
            stack.append(child)


def _meta_findings(ctx: FileContext) -> list[Finding]:
    findings = []
    for suppression in ctx.suppressions.values():
        if not suppression.reason:
            findings.append(
                Finding(
                    rule=BAD_SUPPRESSION,
                    path=ctx.path,
                    line=suppression.line,
                    col=1,
                    message=(
                        "suppression without a reason: write "
                        "'# lint: allow[RLxxx] <why this is safe>'"
                    ),
                )
            )
        for rule_id in suppression.ids:
            if rule_id in (BAD_SUPPRESSION, UNKNOWN_SUPPRESSION):
                findings.append(
                    Finding(
                        rule=UNKNOWN_SUPPRESSION,
                        path=ctx.path,
                        line=suppression.line,
                        col=1,
                        message=(
                            f"meta finding {rule_id} cannot be suppressed"
                        ),
                    )
                )
            elif rule_id not in RULES:
                findings.append(
                    Finding(
                        rule=UNKNOWN_SUPPRESSION,
                        path=ctx.path,
                        line=suppression.line,
                        col=1,
                        message=f"suppression names unknown rule id {rule_id!r}",
                    )
                )
    return findings


def _apply_suppressions(ctx: FileContext) -> list[Finding]:
    kept = []
    for finding in ctx.findings:
        suppression = ctx.suppressions.get(finding.line)
        if (
            suppression is not None
            and suppression.reason
            and finding.rule in suppression.ids
        ):
            continue
        kept.append(finding)
    return kept


def lint_sources(
    sources: dict[str, str], rules: Optional[Iterable[Rule]] = None
) -> list[Finding]:
    """Lint in-memory sources: ``{posix-ish path: source text}``.

    The path decides which rules apply (scoping mirrors the on-disk
    layout), so tests can exercise a rule by handing it a fixture
    string under a synthetic ``src/repro/...`` path. Returns findings
    sorted by (path, line, rule); unparseable files yield one RL000
    syntax finding instead of crashing the run.
    """
    from repro.lintkit import rules as _builtin  # noqa: F401  (registry fill)

    active_rules = list(rules) if rules is not None else list(RULES.values())
    project = Project()
    findings: list[Finding] = []
    for raw_path, source in sorted(sources.items()):
        path = PurePosixPath(raw_path).as_posix()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="RL000",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        ctx = FileContext(path, source, tree)
        project.files[path] = ctx
        in_scope = [rule for rule in active_rules if rule.scope(path)]
        for rule in in_scope:
            rule.begin_file(ctx)
        _walk(ctx, _dispatch_table(in_scope))
        for rule in in_scope:
            rule.end_file(ctx)
    for rule in active_rules:
        rule.finish(project)
    for ctx in project.contexts():
        findings.extend(_apply_suppressions(ctx))
        findings.extend(_meta_findings(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings


def discover_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    import os

    seen: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            seen.add(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [
                    d
                    for d in dirnames
                    if d not in ("__pycache__", ".git", ".hypothesis")
                ]
                for filename in filenames:
                    if filename.endswith(".py"):
                        seen.add(os.path.join(dirpath, filename))
        else:
            raise FileNotFoundError(path)
    return sorted(seen)


def load_sources(
    paths: Iterable[str], root: Optional[str] = None
) -> dict[str, str]:
    """Read ``.py`` files under ``paths`` keyed by root-relative posix path.

    ``root`` defaults to the current working directory, so running from
    the repo root yields the canonical ``src/repro/...`` paths the
    rules scope on.
    """
    import os

    base = os.path.abspath(root or os.getcwd())
    sources: dict[str, str] = {}
    for filename in discover_files(paths):
        absolute = os.path.abspath(filename)
        try:
            rel = os.path.relpath(absolute, base)
        except ValueError:  # different drive (windows)
            rel = absolute
        key = PurePosixPath(rel.replace(os.sep, "/")).as_posix()
        with open(absolute, "r", encoding="utf-8") as handle:
            sources[key] = handle.read()
    return sources


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Iterable[Rule]] = None,
    root: Optional[str] = None,
) -> list[Finding]:
    """Lint files and directories on disk (see :func:`load_sources`)."""
    return lint_sources(load_sources(paths, root=root), rules=rules)
