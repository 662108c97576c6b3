"""Store round-trips of every artifact kind (bit-exact), faulty rows and
active-store plumbing."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.experiments.scenario import simulation_scenario
from repro.fastsim import run_fastsim
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.kernel import PerOpCosts
from repro.net.churn import ChurnConfig
from repro.store import STORE_ENV, Store, active_store, using_store
from repro.store import serialize
from repro.store import store as store_module
from repro.store.keys import content_key
from repro.store.memo import stored
from repro.store.schema import KINDS


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path / "artifacts.sqlite") as handle:
        yield handle


@pytest.fixture(autouse=True)
def _clean_active_store(monkeypatch):
    """No explicit active store: ``REPRO_STORE`` resolution, restored
    after the test."""
    monkeypatch.setattr(store_module, "_active", store_module._UNSET)


COSTS = PerOpCosts(
    lookup=3.25,
    flood=17.5,
    walk=211.75,
    gateway_discovery=2.0,
    maintenance_per_round=0.125,
    num_active_peers=321,
    source="calibrated",
)

CHURN_COSTS = ChurnOpCosts(
    availability=0.6,
    lookup=3.5,
    miss_lookup=4.25,
    hit_flood=12.5,
    miss_flood=11.75,
    insert_flood=10.5,
    resolved_walk=95.25,
    failed_walk=210.0,
    walk_failure=0.0625,
    hit_flood_fraction=0.25,
    turnover_miss=0.125,
    maintenance_per_round=0.5,
    num_active_peers=123,
    source="calibrated",
)


@pytest.fixture(scope="module")
def report():
    params = simulation_scenario(scale=0.02)
    return run_fastsim(
        params, duration=40.0, strategy="partialSelection", seed=3, window=10.0
    )


#: One ``(key inputs, value)`` sample per artifact kind.
SAMPLES = {
    "costs": ({"seed": 0, "n": 1}, lambda report: COSTS),
    "churn_costs": (
        {"churn": ChurnConfig(1800.0, 1200.0), "seed": 3},
        lambda report: CHURN_COSTS,
    ),
    "lookup_probe": ({"n": 1}, lambda report: 7.321),
    "sweep_cell": ({"job": "k"}, lambda report: report),
    # A figure payload whose series are not in sorted order.
    "replicate": (
        {"experiment": "sim", "seed": 0},
        lambda report: {
            "name": "t", "series": {"msg/s": [0.5], "hit rate": [1.25]},
        },
    ),
}

#: Payload text of the samples as the per-kind encoders wrote it (at
#: ``3a2e86e``; ``replicate`` at its rev 2, whose series are pairs); a
#: row the codec writes must stay byte-identical.
PAYLOAD_TEXT = {
    "costs": (
        '{"flood":17.5,"gateway_discovery":2.0,"lookup":3.25,'
        '"maintenance_per_round":0.125,"num_active_peers":321,'
        '"source":"calibrated","type":"costs","walk":211.75}'
    ),
    "churn_costs": (
        '{"availability":0.6,"failed_walk":210.0,"hit_flood":12.5,'
        '"hit_flood_fraction":0.25,"insert_flood":10.5,"lookup":3.5,'
        '"maintenance_per_round":0.5,"miss_flood":11.75,"miss_lookup":4.25,'
        '"num_active_peers":123,"resolved_walk":95.25,"source":"calibrated",'
        '"turnover_miss":0.125,"type":"churn_costs","walk_failure":0.0625}'
    ),
    "lookup_probe": '{"type":"lookup_probe","value":7.321}',
    "replicate": (
        '{"figure":{"name":"t","series":[["msg/s",[0.5]],'
        '["hit rate",[1.25]]]},"type":"replicate"}'
    ),
}


def test_every_kind_has_a_sample():
    assert set(SAMPLES) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestRoundTrips:
    def test_round_trip_is_bit_exact(self, store, report, kind):
        inputs, make = SAMPLES[kind]
        value = make(report)
        key = content_key(kind, inputs)
        store.save(kind, key, value)
        loaded = store.load(kind, key)
        assert loaded == value
        assert type(loaded) is type(value)
        if dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                assert getattr(loaded, field.name) == getattr(
                    value, field.name
                ), field.name
        if kind == "sweep_cell":
            # Dict *order* must survive too: dict equality ignores it, but
            # sum() over the values is order-sensitive in the last ulp.
            assert list(loaded.messages_by_category.items()) == list(
                value.messages_by_category.items()
            )
        if kind == "replicate":
            # A figure prints its series in their order.
            assert list(loaded["series"]) == list(value["series"])
        text = store.db.get(key)
        assert serialize.dumps(KINDS[kind], loaded) == text
        if kind in PAYLOAD_TEXT:
            assert text == PAYLOAD_TEXT[kind]


class TestCostRoundTrips:
    def test_missing_artifacts_load_none(self, store):
        for kind in KINDS:
            assert store.load(kind, content_key(kind, {"seed": 99})) is None

    def test_hits_and_misses_emit_obs_counters(self, store):
        key = content_key("costs", {"seed": 0})
        obs.enable()
        try:
            store.load("costs", key)
            store.save("costs", key, COSTS)
            store.load("costs", key)
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert counters["cache.store.miss"] == 1
        assert counters["cache.store.hit"] == 1
        assert counters["cache.store.costs.miss"] == 1
        assert counters["cache.store.costs.hit"] == 1

    def test_wrong_kind_payload_is_refused(self, store):
        key = content_key("costs", {"seed": 0})
        store.save("costs", key, COSTS)
        store.db.put(
            key, "costs", json.dumps({"type": "gibberish"}), "1.0"
        )
        with pytest.raises(ValueError, match="gibberish"):
            store.load("costs", key)

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "costs"},
            {"type": "costs", "lookup": 1.0},
            {**json.loads(PAYLOAD_TEXT["costs"]), "extra": 1},
            {**json.loads(PAYLOAD_TEXT["costs"]), "lookup": -1.0},
            {**json.loads(PAYLOAD_TEXT["costs"]), "lookup": None},
            [1, 2],
        ],
        ids=["tag-only", "missing-fields", "extra-field", "invalid-value",
             "null-value", "not-an-object"],
    )
    def test_a_row_that_is_not_a_costs_value_is_a_counted_miss(
        self, store, payload
    ):
        key = content_key("costs", {"seed": 0})
        store.db.put(key, "costs", json.dumps(payload), "1.0")
        obs.enable()
        try:
            assert store.load("costs", key) is None
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert counters["cache.store.corrupt"] == 1
        assert counters["cache.store.costs.miss"] == 1
        assert "cache.store.costs.hit" not in counters
        store.save("costs", key, COSTS)  # the recompute overwrites it
        assert store.load("costs", key) == COSTS


class TestActiveStore:
    def test_default_is_no_store(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert active_store() is None

    def test_using_store_restores_prior_state(self, store):
        with using_store(store):
            assert active_store() is store
        assert active_store() is not store

    def test_env_variable_opens_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env.sqlite"
        monkeypatch.setenv(STORE_ENV, str(path))
        opened = active_store()
        assert opened is not None
        assert opened.path == str(path)
        # Resolved lazily but cached: same handle on repeat lookups.
        assert active_store() is opened

    def test_explicit_none_masks_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        with using_store(None):
            assert active_store() is None


class TestStored:
    @staticmethod
    def probe():
        calls = []

        @stored("lookup_probe")
        def measure(params, seed, probes=256):
            calls.append((params, seed, probes))
            return 0.5 * seed

        return measure, calls

    def test_a_call_is_keyed_by_its_bound_arguments(self, store):
        measure, calls = self.probe()
        obs.enable()
        try:
            with using_store(store):
                assert measure({"n": 1}, 4) == 2.0
                assert measure({"n": 1}, seed=4, probes=256) == 2.0
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert len(calls) == 1
        key = content_key(
            "lookup_probe", {"params": {"n": 1}, "seed": 4, "probes": 256}
        )
        assert store.db.get(key) == '{"type":"lookup_probe","value":2.0}'
        assert counters["cache.store.lookup_probe.hit"] == 1
        assert counters["cache.store.lookup_probe.miss"] == 1

    def test_without_a_store_the_body_always_runs(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        measure, calls = self.probe()
        measure({"n": 1}, 4)
        measure({"n": 1}, 4)
        assert len(calls) == 2


class TestCalibrationsThroughStore:
    def test_fresh_process_semantics_reuse_disk_calibration(self, store):
        """Clearing the L1 (what a fresh process means) must hit the L2."""
        from repro.fastsim.compare import _costs_for_cached, costs_for
        from repro.pdht.config import PdhtConfig

        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        _costs_for_cached.cache_clear()  # earlier tests may have warmed L1
        obs.enable()
        try:
            with using_store(store):
                first = costs_for(params, config, 60)
                _costs_for_cached.cache_clear()
                second = costs_for(params, config, 60)
            counters = obs.collector().counters
        finally:
            obs.disable()
        assert first == second
        assert first.source == "calibrated"
        assert counters["cache.store.costs.hit"] == 1
        assert counters["cache.store.costs.miss"] == 1

    def test_calibration_seconds_zero_on_warm_start(self, store):
        """A store hit never enters the calibrate.* span."""
        from repro.fastsim.compare import _costs_for_cached, costs_for
        from repro.pdht.config import PdhtConfig

        params = simulation_scenario(scale=0.02)
        config = PdhtConfig.from_scenario(params)
        _costs_for_cached.cache_clear()  # earlier tests may have warmed L1
        with using_store(store):
            costs_for(params, config, 60)
            _costs_for_cached.cache_clear()
            obs.enable()
            try:
                costs_for(params, config, 60)
                spans = obs.collector().snapshot()["spans"]
            finally:
                obs.disable()
        assert "calibrate.costs" not in spans
