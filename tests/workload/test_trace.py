"""Tests for query-trace recording and replay."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.workloads import QueryEvent, QueryTrace, StationaryZipf, record_trace


@pytest.fixture
def workload(rng):
    return StationaryZipf().build(ZipfDistribution(50, 1.2), rng)


class TestTrace:
    def test_append_preserves_order(self):
        trace = QueryTrace(n_keys=10)
        trace.append(QueryEvent(time=1.0, rank=1, key_index=0))
        trace.append(QueryEvent(time=2.0, rank=3, key_index=2))
        assert len(trace) == 2

    def test_out_of_order_rejected(self):
        trace = QueryTrace(n_keys=10)
        trace.append(QueryEvent(time=2.0, rank=1, key_index=0))
        with pytest.raises(ParameterError):
            trace.append(QueryEvent(time=1.0, rank=1, key_index=0))

    def test_unsorted_constructor_events_rejected(self):
        # Replay binary-searches the timestamps, so the constructor must
        # enforce the same ordering append() does.
        with pytest.raises(ParameterError, match="time-ordered"):
            QueryTrace(
                events=[
                    QueryEvent(time=5.0, rank=1, key_index=0),
                    QueryEvent(time=1.0, rank=1, key_index=0),
                ],
                n_keys=10,
            )

    def test_key_outside_universe_rejected(self):
        trace = QueryTrace(n_keys=5)
        with pytest.raises(ParameterError):
            trace.append(QueryEvent(time=0.0, rank=1, key_index=7))

    def test_duration(self):
        trace = QueryTrace(n_keys=10)
        for t in (0.0, 5.0, 10.0):
            trace.append(QueryEvent(time=t, rank=1, key_index=0))
        assert trace.duration() == 10.0

    def test_empty_trace_stats(self):
        assert QueryTrace().duration() == 0.0


class TestSerialisation:
    def test_json_roundtrip(self, workload):
        trace = record_trace(workload, duration=5.0, queries_per_round=4)
        restored = QueryTrace.from_json(trace.to_json())
        assert len(restored) == len(trace)
        assert restored.n_keys == trace.n_keys
        assert [e.rank for e in restored] == [e.rank for e in trace]

    def test_save_load_roundtrip(self, workload, tmp_path):
        trace = record_trace(workload, duration=3.0, queries_per_round=2,
                             description="test trace")
        path = tmp_path / "trace.json"
        trace.save(path)
        restored = QueryTrace.load(path)
        assert restored.description == "test trace"
        assert len(restored) == len(trace)

    def test_unreadable_file_rejected_naming_the_path(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ParameterError, match="missing.json"):
            QueryTrace.load(missing)
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ParameterError, match="binary.jsonl"):
            QueryTrace.load(binary)

    def test_invalid_json_rejected(self):
        with pytest.raises(ParameterError):
            QueryTrace.from_json("not json at all {")

    def test_wrong_version_rejected(self):
        with pytest.raises(ParameterError):
            QueryTrace.from_json('{"version": 99, "events": []}')

    def test_jsonl_roundtrip(self, workload):
        trace = record_trace(workload, duration=5.0, queries_per_round=4,
                             description="jsonl trace")
        restored = QueryTrace.from_jsonl(trace.to_jsonl())
        assert restored.description == "jsonl trace"
        assert restored.n_keys == trace.n_keys
        assert [
            (e.time, e.rank, e.key_index) for e in restored
        ] == [(e.time, e.rank, e.key_index) for e in trace]

    def test_jsonl_suffix_selects_format(self, workload, tmp_path):
        trace = record_trace(workload, duration=3.0, queries_per_round=2)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        text = path.read_text()
        # One header line plus one line per event.
        assert len(text.splitlines()) == len(trace) + 1
        restored = QueryTrace.load(path)
        assert len(restored) == len(trace)

    def test_invalid_jsonl_rejected(self):
        with pytest.raises(ParameterError):
            QueryTrace.from_jsonl("")
        with pytest.raises(ParameterError):
            QueryTrace.from_jsonl("[1, 2, 3]")  # header must be an object
        with pytest.raises(ParameterError):
            QueryTrace.from_jsonl('{"version": 99}')
        with pytest.raises(ParameterError):
            QueryTrace.from_jsonl(
                '{"version": 1, "n_keys": 5}\nnot an event'
            )


class TestRecord:
    def test_records_expected_volume(self, workload):
        trace = record_trace(workload, duration=10.0, queries_per_round=5)
        assert len(trace) == 50
        assert trace.n_keys == 50

    def test_zipf_shape_preserved(self, workload):
        trace = record_trace(workload, duration=200.0, queries_per_round=20)
        histogram = Counter(event.rank for event in trace)
        assert histogram[1] > histogram[40]

    def test_invalid_parameters(self, workload):
        with pytest.raises(ParameterError):
            record_trace(workload, duration=0.0, queries_per_round=1)
        with pytest.raises(ParameterError):
            record_trace(workload, duration=1.0, queries_per_round=-1)

    def test_replay_is_deterministic_across_strategies(self, workload):
        # The whole point: two consumers replaying the same trace see the
        # same events.
        trace = record_trace(workload, duration=5.0, queries_per_round=3)
        seen_a = [(e.time, e.key_index) for e in trace]
        seen_b = [(e.time, e.key_index) for e in QueryTrace.from_json(trace.to_json())]
        assert seen_a == seen_b
