"""Render collected telemetry as a text tree or JSON document.

The text profile is what ``runner --profile`` prints to stderr::

    telemetry profile
    spans                                    count     total      mean
      sweep.grid                                 1   12.341s   12.341s
        kernel.run                              18   11.902s    0.661s
          kernel.round.queries                7200    8.120s     1.1ms
    counters
      cache.costs.hit                            17
    gauges
      worker.peak_rss_bytes                      412.3 MiB

Rendering accepts either a live :class:`~repro.obs.collector.Collector`
or a snapshot dict (the ``telemetry`` block of a saved
``ExperimentResult``), so profiles can be re-rendered from exported JSON.
"""

from __future__ import annotations

from typing import Any, Mapping, Union

from repro.obs.collector import Collector

__all__ = ["profile_data", "profile_text"]

Source = Union[Collector, Mapping[str, Any], None]


def profile_data(source: Source) -> dict[str, Any]:
    """Normalise a collector or snapshot into the snapshot-dict shape."""
    if source is None:
        return {"spans": {}, "counters": {}, "gauges": {}}
    if isinstance(source, Collector):
        return source.snapshot()
    return {
        "spans": dict(source.get("spans", {})),
        "counters": dict(source.get("counters", {})),
        "gauges": dict(source.get("gauges", {})),
    }


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_gauge(name: str, value: float) -> str:
    if name.endswith("_bytes") and value >= 1024:
        return f"{value / (1024 * 1024):.1f} MiB"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def _format_count(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def _span_tree(spans: Mapping[str, Mapping[str, Any]]) -> list[dict]:
    """Arrange span paths into a nested tree, children under parents.

    Paths are ``/``-joined; a parent that never recorded itself (phase
    durations reported under a span that was sampled as locals) still
    appears as a structural node with blank totals.
    """
    root: dict[str, dict] = {}
    for path, data in spans.items():
        node = None
        children = root
        for part in path.split("/"):
            node = children.setdefault(
                part, {"name": part, "data": None, "children": {}}
            )
            children = node["children"]
        if node is not None:
            node["data"] = data

    def materialise(children: dict[str, dict]) -> list[dict]:
        nodes = []
        for node in children.values():
            nodes.append(
                {
                    "name": node["name"],
                    "data": node["data"],
                    "children": materialise(node["children"]),
                }
            )
        # Heaviest subtrees first; structural nodes sort by their
        # children's weight.
        nodes.sort(key=_subtree_seconds, reverse=True)
        return nodes

    return materialise(root)


def _subtree_seconds(node: dict) -> float:
    own = node["data"]["seconds"] if node["data"] else 0.0
    return own + sum(_subtree_seconds(child) for child in node["children"])


def profile_text(source: Source, title: str = "telemetry profile") -> str:
    """The human-readable span/counter/gauge tree."""
    data = profile_data(source)
    lines = [title]
    spans = data["spans"]
    if spans:
        lines.append(
            f"{'spans':<44}{'count':>8}{'total':>10}{'mean':>10}"
        )

        def emit(nodes: list[dict], depth: int) -> None:
            for node in nodes:
                label = "  " * (depth + 1) + node["name"]
                record = node["data"]
                if record is None:
                    lines.append(label)
                else:
                    count = record.get("count", 0)
                    seconds = record.get("seconds", 0.0)
                    mean = seconds / count if count else 0.0
                    row = (
                        f"{label:<44}{count:>8}"
                        f"{_format_seconds(seconds):>10}"
                        f"{_format_seconds(mean):>10}"
                    )
                    attrs = record.get("attrs") or {}
                    if attrs:
                        pairs = ", ".join(
                            f"{k}={v}" for k, v in sorted(attrs.items())
                        )
                        row += f"  {{{pairs}}}"
                    lines.append(row)
                emit(node["children"], depth + 1)

        emit(_span_tree(spans), 0)
    if data["counters"]:
        lines.append("counters")
        for name in sorted(data["counters"]):
            lines.append(
                f"  {name:<42}{_format_count(data['counters'][name]):>10}"
            )
    if data["gauges"]:
        lines.append("gauges")
        for name in sorted(data["gauges"]):
            lines.append(
                f"  {name:<42}"
                f"{_format_gauge(name, data['gauges'][name]):>14}"
            )
    if len(lines) == 1:
        lines.append("  (no telemetry recorded)")
    return "\n".join(lines)

