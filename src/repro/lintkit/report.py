"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json
from repro.lintkit.engine import RULES, Finding

__all__ = ["REPORT_SCHEMA", "render_text", "render_json"]

REPORT_SCHEMA = 2


def _rule_summary(finding: Finding) -> str:
    rule = RULES.get(finding.rule)
    return f"{finding.rule}[{rule.name}]" if rule else finding.rule


def render_text(
    findings: list[Finding],
    files_scanned: int,
    line_text: dict[tuple[str, int], str],
) -> str:
    """Human-facing report: one ``path:line:col rule message`` per finding."""
    lines: list[str] = []
    for finding in findings:
        lines.append(
            f"{finding.location()}: {_rule_summary(finding)} {finding.message}"
        )
        source = line_text.get((finding.path, finding.line), "")
        if source:
            lines.append(f"    {source}")
    lines.append("")
    verdict = "FAILED" if findings else "clean"
    lines.append(
        f"lintkit: {verdict} — {files_scanned} files, "
        f"{len(findings)} finding(s)"
    )
    return "\n".join(lines).lstrip("\n")


def render_json(
    findings: list[Finding],
    files_scanned: int,
    line_text: dict[tuple[str, int], str],
) -> str:
    """Machine-facing report (uploaded as the CI workflow artifact)."""

    def as_dict(finding: Finding) -> dict[str, object]:
        payload = finding.to_dict()
        payload["text"] = line_text.get((finding.path, finding.line), "")
        return payload

    payload = {
        "schema": REPORT_SCHEMA,
        "clean": not findings,
        "files_scanned": files_scanned,
        "findings": [as_dict(f) for f in findings],
        "rules": {
            rule_id: {
                "name": rule.name,
                "severity": rule.severity,
                "summary": rule.summary,
            }
            for rule_id, rule in sorted(RULES.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
