"""Output check: is what a rep printed the right answer?

A rep's ``--format json`` result is reduced to its figure (x labels plus
named numeric series) and compared with ``expected.json``, which holds
the figures of every workload for seed 0 at the commit that defined the
benchmark. For other seeds only the seed-independent series have an
expected value; every figure must still have the expected shape, finite
values and rates in [0, 1], and reps of one run must agree exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping, Optional

__all__ = ["REL_TOL", "figure_of", "compare_figures", "range_problems"]

REL_TOL = 1e-9

Figure = dict[str, Any]


def figure_of(result_json: str) -> Figure:
    """``{"x_values": [...], "series": {name: [...]}}`` of a result export."""
    figure = json.loads(result_json)["figure"]
    return {
        "x_values": [str(x) for x in figure["x_values"]],
        "series": {
            name: [float(v) for v in values]
            for name, values in figure["series"].items()
        },
    }


def compare_figures(
    actual: Figure,
    expected: Figure,
    rel_tol: float = REL_TOL,
    only: Optional[Iterable[str]] = None,
) -> list[str]:
    """Differences between two figures, as readable lines (empty = equal).

    ``only`` restricts the *value* comparison to those series; labels and
    series names are always compared.
    """
    problems: list[str] = []
    if actual["x_values"] != expected["x_values"]:
        problems.append(
            f"x values differ: {actual['x_values']} != {expected['x_values']}"
        )
    if list(actual["series"]) != list(expected["series"]):
        problems.append(
            f"series differ: {list(actual['series'])} != "
            f"{list(expected['series'])}"
        )
        return problems
    names = list(expected["series"]) if only is None else list(only)
    for name in names:
        got, want = actual["series"][name], expected["series"][name]
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} values, expected {len(want)}")
            continue
        for index, (a, b) in enumerate(zip(got, want)):
            if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0):
                problems.append(f"{name}[{index}]: {a!r} != expected {b!r}")
    return problems


def range_problems(figure: Figure) -> list[str]:
    """Values that cannot be right for any seed."""
    problems: list[str] = []
    series: Mapping[str, list[float]] = figure["series"]
    for name, values in series.items():
        if len(values) != len(figure["x_values"]):
            problems.append(f"{name}: {len(values)} values for "
                            f"{len(figure['x_values'])} x labels")
        for index, value in enumerate(values):
            if not math.isfinite(value) or value < 0:
                problems.append(f"{name}[{index}]: {value!r} is not a "
                                "finite non-negative number")
            elif "rate" in name and value > 1:
                problems.append(f"{name}[{index}]: rate {value!r} > 1")
    return problems
