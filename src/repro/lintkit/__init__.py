"""``repro.lintkit``: an AST-based invariant checker for this repo.

The codebase's correctness rests on cross-cutting invariants no
general-purpose linter knows about — seeded determinism (pinned
bit-identical captures), artifact-identity purity (every
result-affecting parameter reaches ``job_key``; execution details never
do), the ``StatePrecision`` dtype policy, shared-memory segment
lifecycle, counted caches, and the obs naming convention. ``lintkit``
checks them mechanically, the way a deductive database checks integrity
constraints: parse each file once, run every rule's visitors in a
single pass, fail CI on any finding.

Usage::

    python -m repro.lintkit src tests benchmarks
    python -m repro.lintkit --explain RL104
    python -m repro.lintkit --list-rules

Suppress a finding inline — the reason is mandatory::

    t0 = time.perf_counter()  # lint: allow[RL101] benchmark harness timing

Zero dependencies beyond the standard library; rules live in
:mod:`repro.lintkit.rules`, the driver in :mod:`repro.lintkit.engine`.
"""

from repro.lintkit.engine import (
    BAD_SUPPRESSION,
    RULES,
    UNKNOWN_SUPPRESSION,
    Finding,
    Rule,
    lint_paths,
    lint_sources,
    register_rule,
    rule_ids,
)
from repro.lintkit import rules as _rules  # noqa: F401  (fills the registry)

__all__ = [
    "BAD_SUPPRESSION",
    "UNKNOWN_SUPPRESSION",
    "Finding",
    "Rule",
    "RULES",
    "lint_paths",
    "lint_sources",
    "register_rule",
    "rule_ids",
]
