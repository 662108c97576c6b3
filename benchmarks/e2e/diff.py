"""Compare result files written by ``run.py --out``.

``diff A.json B.json`` prints, per workload and end-to-end metric, the
parent's value (A), the change's (B), the ratio with its base and a
verdict against the bound in ``BENCHMARK.json``; then the per-layer
deltas and every count that changed. One pair of runs cannot carry a
claim (see choosing-metrics: ten alternating pairs); the verdict only
says on which side of the bound this pair fell.

``repeatability A.json B.json C.json`` summarises runs of the *same*
code: per workload and end-to-end metric the values, their largest
pairwise relative difference and the bound; per count whether it
repeated exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

__all__ = ["verdict", "diff_table", "repeatability", "diff_main",
           "repeatability_main"]

def verdict(parent: float, change: float, better: str, bound: float) -> str:
    """*improved* / *worse* / *within bound* for one pair of values."""
    if parent == 0:
        return "within bound" if change == 0 else "no base"
    gain = (parent - change) / parent
    if better == "higher":
        gain = -gain
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "worse"
    return "within bound"


def _load(path: str) -> dict[str, dict[str, dict[str, Any]]]:
    """workload -> metric -> {"value", "unit"} of one result file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        name: result.get("metrics", {})
        for name, result in data["workloads"].items()
    }


def _ratio(parent: float, change: float, unit: str) -> str:
    if parent == 0:
        return "-"
    return f"{change / parent:.3f}x of {parent:.4g} {unit}"


def diff_table(parent: dict, change: dict, spec: dict) -> list[str]:
    lines = [
        f"{'workload':<11} {'metric':<28} {'parent':>14} {'change':>14}  "
        f"{'ratio (change/parent)':<28} verdict"
    ]
    shared = [w["name"] for w in spec["workloads"]
              if w["name"] in parent and w["name"] in change]
    for workload in shared:
        for metric in spec["end_to_end"]:
            a = parent[workload].get(metric["name"])
            b = change[workload].get(metric["name"])
            if a is None or b is None:
                continue
            lines.append(
                f"{workload:<11} {metric['name']:<28} {a['value']:14.4f} "
                f"{b['value']:14.4f}  "
                f"{_ratio(a['value'], b['value'], a['unit']):<28} "
                + verdict(a["value"], b["value"], metric["better"],
                          metric["bound"])
                + f" ({metric['bound']:.0%})"
            )
    changed_counts: list[str] = []
    for workload in shared:
        for metric in spec["per_layer"]:
            a = parent[workload].get(metric["name"])
            b = change[workload].get(metric["name"])
            if a is None or b is None or (a["value"] == 0 and b["value"] == 0):
                continue
            lines.append(
                f"{workload:<11} {metric['name']:<28} {a['value']:14.6g} "
                f"{b['value']:14.6g}  "
                f"{_ratio(a['value'], b['value'], a['unit']):<28}"
            )
            if a["unit"] == "count" and a["value"] != b["value"]:
                changed_counts.append(
                    f"{workload} {metric['name']}: "
                    f"{a['value']:g} -> {b['value']:g}"
                )
    lines.append("")
    lines.append(
        "counts that changed: " + ("; ".join(changed_counts) or "none")
    )
    return lines


def repeatability(runs: list[dict], spec: dict) -> dict[str, Any]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, Any] = {
        "runs": len(runs), "end_to_end": {}, "counts": {}, "diagnostics": {},
        "all_within_bound": True, "all_counts_identical": True,
    }
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in run for run in runs):
            continue
        rows = summary["end_to_end"][workload] = {}
        for name, bound in bounds.items():
            values = [run[workload][name]["value"] for run in runs
                      if name in run[workload]]
            if len(values) < 2:
                continue
            spread = (max(values) - min(values)) / min(values)
            rows[name] = {
                "values": values,
                "max_pairwise_rel_diff": spread,
                "bound": bound,
                "within_bound": spread <= bound,
            }
            summary["all_within_bound"] &= spread <= bound
        counts = summary["counts"][workload] = {}
        diagnostics = summary["diagnostics"][workload] = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [run[workload][name]["value"] for run in runs
                      if name in run[workload]]
            if len(values) < 2:
                continue
            if metric["unit"] == "count":
                counts[name] = {"values": values,
                                "identical": len(set(values)) == 1}
                summary["all_counts_identical"] &= len(set(values)) == 1
            elif name.startswith(("trace.", "machine.")):
                diagnostics[name] = values
    return summary


def diff_main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py diff PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    print("\n".join(diff_table(_load(argv[0]), _load(argv[1]), spec)))
    return 0


def repeatability_main(argv: list[str], spec: dict) -> int:
    if len(argv) < 2:
        print("usage: run.py repeatability A.json B.json [C.json ...]",
              file=sys.stderr)
        return 2
    summary = repeatability([_load(path) for path in argv], spec)
    print(json.dumps(summary, indent=1))
    return 0 if summary["all_within_bound"] and summary["all_counts_identical"] else 1
