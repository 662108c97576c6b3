"""Tests for figure/result export (CSV/JSON) and round-trips."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.experiments.export import (
    figure_to_csv,
    figure_to_json,
    load_figure_json,
    load_result_json,
    result_to_json,
    save_figure,
    save_result,
)
from repro.experiments.figures import FigureSeries


@pytest.fixture
def figure():
    return FigureSeries(
        name="test figure",
        x_label="x",
        x_values=["1/30", "1/60"],
        series={"a": [1.5, 2.5], "b": [10.0, 20.0]},
        notes="a note",
    )


class TestCsv:
    def test_header_and_rows(self, figure):
        text = figure_to_csv(figure)
        lines = text.strip().splitlines()
        assert lines[0] == "x,a,b"
        assert lines[1] == "1/30,1.5,10.0"
        assert len(lines) == 3

    def test_csv_of_real_figure(self):
        from repro.experiments.figures import figure1

        text = figure_to_csv(figure1())
        assert text.splitlines()[0] == "queryFreq,indexAll,noIndex,partial"
        assert len(text.splitlines()) == 9


class TestJson:
    def test_roundtrip(self, figure):
        restored = load_figure_json(figure_to_json(figure))
        assert restored.name == figure.name
        assert restored.x_values == figure.x_values
        assert restored.series == figure.series
        assert restored.notes == figure.notes

    def test_invalid_json_rejected(self):
        with pytest.raises(ParameterError):
            load_figure_json("{broken")

    def test_missing_fields_rejected(self):
        with pytest.raises(ParameterError):
            load_figure_json('{"name": "x"}')


class TestRoundTrips:
    """save_figure -> load_figure_json must reconstruct an identical
    FigureSeries, and CSV shape must match the series shape."""

    def test_save_load_identity(self, figure, tmp_path):
        path = save_figure(figure, tmp_path / "fig.json")
        restored = load_figure_json(path.read_text())
        assert restored == figure  # dataclass equality: every field

    def test_save_load_identity_real_figure(self, tmp_path):
        from repro.experiments.figures import figure4

        original = figure4()
        path = save_figure(original, tmp_path / "fig4.json")
        assert load_figure_json(path.read_text()) == original

    def test_csv_shape_matches_series(self, figure):
        lines = figure_to_csv(figure).strip().splitlines()
        header = lines[0].split(",")
        assert len(header) == 1 + len(figure.series)  # x + one per series
        assert header[0] == figure.x_label
        assert header[1:] == list(figure.series)
        assert len(lines) - 1 == len(figure.x_values)  # one row per x

    def test_csv_shape_matches_series_real_figure(self):
        from repro.experiments.figures import keyttl_sensitivity

        fig = keyttl_sensitivity()
        lines = figure_to_csv(fig).strip().splitlines()
        assert len(lines) - 1 == len(fig.x_values)
        assert len(lines[0].split(",")) == 1 + len(fig.series)

    def test_figure_convenience_methods_match_helpers(self, figure):
        assert figure.to_json() == figure_to_json(figure)


class TestResultExport:
    @pytest.fixture
    def result(self):
        from repro.experiments.api import run

        return run("fig2")

    def test_result_roundtrip(self, result):
        restored = load_result_json(result_to_json(result))
        assert restored.name == result.name
        assert restored.kind == result.kind
        assert restored.engine == result.engine
        assert restored.scenario == result.scenario
        assert restored.seed == result.seed
        assert restored.version == result.version
        assert restored.figure == result.figure

    def test_result_json_carries_provenance(self, result):
        import json

        payload = json.loads(result_to_json(result))
        provenance = payload["provenance"]
        assert provenance["version"] == result.version
        assert provenance["scenario"]["num_peers"] == 20_000
        assert provenance["wall_clock_seconds"] >= 0

    def test_save_result_formats(self, result, tmp_path):
        json_path = save_result(result, tmp_path, fmt="json")
        assert json_path.name == "fig2.json"
        assert load_result_json(json_path.read_text()).figure == result.figure
        csv_path = save_result(result, tmp_path, fmt="csv")
        assert csv_path.read_text() == result.to_csv()
        txt_path = save_result(result, tmp_path, fmt="txt")
        assert "Fig. 2" in txt_path.read_text()

    def test_save_result_unknown_format(self, result, tmp_path):
        with pytest.raises(ParameterError):
            save_result(result, tmp_path, fmt="xlsx")

    def test_load_result_rejects_garbage(self):
        with pytest.raises(ParameterError):
            load_result_json("{broken")
        with pytest.raises(ParameterError):
            load_result_json('{"experiment": "x"}')
        with pytest.raises(ParameterError, match="provenance"):
            load_result_json(
                '{"experiment": "x", "provenance": 7, "figure": {}}'
            )

    def test_table1_roundtrip_keeps_table_rendering(self):
        # TableSeries must survive the result round-trip intact: same
        # class, same rows, same three-column rendering.
        from repro.experiments.api import run
        from repro.experiments.tables import TableSeries

        result = run("table1")
        restored = load_result_json(result_to_json(result))
        assert isinstance(restored.figure, TableSeries)
        assert restored.figure == result.figure
        assert "Description" in restored.render()


class TestSave:
    def test_save_csv(self, figure, tmp_path):
        path = save_figure(figure, tmp_path / "fig.csv")
        assert path.read_text().startswith("x,a,b")

    def test_save_json(self, figure, tmp_path):
        path = save_figure(figure, tmp_path / "fig.json")
        restored = load_figure_json(path.read_text())
        assert restored.series == figure.series

    def test_unknown_suffix_rejected(self, figure, tmp_path):
        with pytest.raises(ParameterError):
            save_figure(figure, tmp_path / "fig.xlsx")
