"""Export reproduced figures and experiment results as CSV or JSON.

Downstream plotting (gnuplot, matplotlib, spreadsheets) wants raw series,
not ASCII tables; these helpers serialise any
:class:`~repro.experiments.figures.FigureSeries` losslessly. The
``result_*`` helpers do the same for
:class:`~repro.experiments.api.ExperimentResult`, wrapping the figure in
a provenance envelope (scenario parameters, engine, seed, wall-clock,
package version) so an exported grid or figure is reproducible from the
file alone.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ParameterError
from repro.experiments.figures import FigureSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.api import ExperimentResult

__all__ = [
    "figure_to_csv",
    "figure_payload",
    "figure_from_payload",
    "figure_to_json",
    "save_figure",
    "load_figure_json",
    "result_to_json",
    "load_result_json",
    "save_result",
]


def figure_to_csv(figure: FigureSeries) -> str:
    """Render a figure as CSV: one x column plus one column per series."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([figure.x_label, *figure.series.keys()])
    for i, x in enumerate(figure.x_values):
        writer.writerow([x, *(values[i] for values in figure.series.values())])
    return buffer.getvalue()


def figure_payload(figure: FigureSeries) -> dict[str, object]:
    """A figure as a JSON object (name, notes, x axis, series).

    A :class:`~repro.experiments.tables.TableSeries` additionally keeps
    its (description, parameter, value) rows, so the round-trip restores
    the table rendering too."""
    payload: dict[str, object] = {
        "name": figure.name,
        "x_label": figure.x_label,
        "x_values": list(figure.x_values),
        "series": {k: list(v) for k, v in figure.series.items()},
        "notes": figure.notes,
    }
    rows = getattr(figure, "rows", None)
    if rows is not None:
        payload["rows"] = [list(row) for row in rows]
        payload["headers"] = list(getattr(figure, "headers", ()) or ())
    return payload


def figure_from_payload(payload: object) -> FigureSeries:
    """Reconstruct a :class:`FigureSeries` from :func:`figure_payload`."""
    if not isinstance(payload, dict):
        raise ParameterError(
            f"figure export must be an object, got {type(payload).__name__}"
        )
    missing = {"name", "x_label", "x_values", "series"} - set(payload)
    if missing:
        raise ParameterError(f"figure export missing fields: {sorted(missing)}")
    fields = dict(
        name=payload["name"],
        x_label=payload["x_label"],
        x_values=[str(x) for x in payload["x_values"]],
        series={k: [float(v) for v in vs] for k, vs in payload["series"].items()},
        notes=payload.get("notes", ""),
    )
    if "rows" in payload:
        from repro.experiments.tables import TableSeries

        table_fields = dict(
            fields, rows=[tuple(row) for row in payload["rows"]]
        )
        if payload.get("headers"):
            table_fields["headers"] = tuple(payload["headers"])
        return TableSeries(**table_fields)
    return FigureSeries(**fields)


def figure_to_json(figure: FigureSeries) -> str:
    """Render a figure as JSON text (:func:`figure_payload`)."""
    return json.dumps(figure_payload(figure), indent=2)


def load_figure_json(text: str) -> FigureSeries:
    """Reconstruct a :class:`FigureSeries` from :func:`figure_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"not a valid figure export: {exc}") from exc
    return figure_from_payload(payload)


def result_to_json(result: "ExperimentResult") -> str:
    """Serialise an experiment result: provenance envelope plus figure.

    A ``replicates=N`` result additionally keeps its replication payload
    (seeds, confidence, per-seed series values); a run executed with
    telemetry enabled keeps its merged ``telemetry`` snapshot."""
    payload: dict[str, object] = {
        "experiment": result.name,
        "title": result.title,
        "provenance": result.provenance(),
        "figure": figure_payload(result.figure),
    }
    if result.replication is not None:
        payload["replication"] = result.replication
    if result.telemetry is not None:
        payload["telemetry"] = result.telemetry
    return json.dumps(payload, indent=2)


def load_result_json(text: str) -> "ExperimentResult":
    """Reconstruct an :class:`ExperimentResult` from :func:`result_to_json`."""
    from repro.experiments.api import ExperimentResult

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"not a valid result export: {exc}") from exc
    missing = {"experiment", "provenance", "figure"} - set(payload)
    if missing:
        raise ParameterError(f"result export missing fields: {sorted(missing)}")
    provenance = payload["provenance"]
    if not isinstance(provenance, dict):
        raise ParameterError(
            f"result export 'provenance' must be an object, "
            f"got {type(provenance).__name__}"
        )
    return ExperimentResult(
        name=payload["experiment"],
        title=payload.get("title", payload["experiment"]),
        kind=provenance.get("kind", "analytical"),
        figure=figure_from_payload(payload["figure"]),
        engine=provenance.get("engine"),
        scenario=dict(provenance.get("scenario", {})),
        parameters=dict(provenance.get("parameters", {})),
        seed=provenance.get("seed"),
        wall_clock_seconds=float(provenance.get("wall_clock_seconds", 0.0)),
        version=provenance.get("version", ""),
        replication=payload.get("replication"),
        telemetry=payload.get("telemetry"),
        source=provenance.get("source", "computed"),
    )


def save_result(
    result: "ExperimentResult", directory: str | Path, fmt: str = "json"
) -> Path:
    """Write ``<directory>/<name>.<fmt>`` (json/csv/txt) and return the path.

    ``json`` keeps the provenance envelope; ``csv`` exports the bare
    figure series; ``txt`` writes the rendered ASCII form.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.name}.{fmt}"
    if fmt == "json":
        path.write_text(result_to_json(result) + "\n", encoding="utf-8")
    elif fmt == "csv":
        path.write_text(figure_to_csv(result.figure), encoding="utf-8")
    elif fmt == "txt":
        path.write_text(result.render() + "\n", encoding="utf-8")
    else:
        raise ParameterError(
            f"unsupported result format {fmt!r} (use json, csv or txt)"
        )
    return path


def save_figure(figure: FigureSeries, path: str | Path) -> Path:
    """Write a figure to ``path``; format chosen by suffix (.csv / .json)."""
    path = Path(path)
    if path.suffix == ".csv":
        path.write_text(figure_to_csv(figure), encoding="utf-8")
    elif path.suffix == ".json":
        path.write_text(figure_to_json(figure), encoding="utf-8")
    else:
        raise ParameterError(
            f"unsupported export suffix {path.suffix!r} (use .csv or .json)"
        )
    return path
