"""The scheduled gate table (benchmarks/gates.py) and its runner.

Stub measures only: the real ones need 10^4-10^7 peers and run in the
weekly job.
"""

from __future__ import annotations

import importlib
import math

from benchmarks.gates import GATES, Gate, readings, run, table1_index
from repro.experiments.scenario import simulation_scenario


def table(limit_b: float = 2.0, calls: list | None = None):
    def shared():
        if calls is not None:
            calls.append("shared")
        return {"a": 1.0, "b": 1.5, "c": 0.0}

    return (
        Gate("one.a", shared, "a", 1.0, "a reading on its limit passes"),
        Gate("one.b", shared, "b", limit_b, "the row under test"),
        Gate("one.c", shared, "c", 0.5, "third row of the same measure"),
        Gate("two.x", lambda: {"x": 0.1}, "x", 0.2, "its own measure"),
    )


def test_a_passing_table_exits_zero_with_one_line_per_row():
    lines: list[str] = []
    assert run(table(), out=lines.append) == 0
    assert [line.split()[0] for line in lines] == [
        "one.a", "one.b", "one.c", "two.x"
    ]
    assert all(line.split()[-1] == "ok" for line in lines)


def test_a_reading_over_its_limit_is_one_drift_line_and_exit_one():
    lines: list[str] = []
    assert run(table(limit_b=1.4), out=lines.append) == 1
    drifted = [line for line in lines if "DRIFT" in line]
    assert len(drifted) == 1 and len(lines) == 4
    name, reading, _, limit = drifted[0].split()[:4]
    assert (name, float(reading), float(limit)) == ("one.b", 1.5, 1.4)
    assert "the row under test" in drifted[0]


def test_a_nan_reading_drifts():
    gate = Gate("nan", lambda: {"x": math.nan}, "x", 1.0, "why")
    assert run([gate], out=lambda line: None) == 1


def test_a_measure_shared_by_three_rows_is_called_once():
    calls: list[str] = []
    run(table(calls=calls), out=lambda line: None)
    assert calls == ["shared"]


def test_readings_call_each_measure_once_and_judge_nothing():
    calls: list[str] = []
    gates = table(limit_b=0.0, calls=calls)  # a row that would drift
    measured = readings(gates)
    assert calls == ["shared"]
    assert list(measured) == [gates[0].measure, gates[3].measure]
    assert measured[gates[0].measure]["b"] == 1.5


def test_shipped_rows_are_unique_and_their_measures_importable():
    names = [gate.name for gate in GATES]
    assert len(set(names)) == len(names)
    for gate in GATES:
        module = importlib.import_module(gate.measure.__module__)
        assert getattr(module, gate.measure.__name__) is gate.measure
        assert gate.why and math.isfinite(gate.limit)


def test_the_table1_index_row_reads_a_small_build():
    # The shipped measure, on a 200-peer stand-in for Table 1.
    shipped = next(g for g in GATES if g.name == "table1_index.peak_mib")
    assert shipped.measure is table1_index and shipped.field == "peak_mib"
    small = simulation_scenario(scale=0.01)
    gate = Gate(shipped.name, lambda: table1_index(small), shipped.field,
                shipped.limit, shipped.why)
    lines: list[str] = []
    assert run([gate], out=lines.append) == 0
    assert 0.0 < float(lines[0].split()[1]) < shipped.limit
