"""Content-key composition: canonical forms and invalidation semantics."""

from __future__ import annotations

import enum
import math

import numpy as np
import pytest

import repro
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.store import canonical, canonical_json, content_key


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(None) is None
        assert canonical(True) is True
        assert canonical(3) == 3
        assert canonical(0.25) == 0.25
        assert canonical("x") == "x"

    def test_nonfinite_floats_are_rejected(self):
        # NaN equals nothing, so a key holding one could never be matched.
        with pytest.raises(ValueError, match="non-finite"):
            canonical(float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            canonical({"x": [np.float64("nan")]})

    def test_infinities_are_tagged(self):
        # "No further boundary" / hot_for=inf are legitimate key inputs.
        assert canonical(float("inf")) == {"__float__": "inf"}
        assert canonical(-math.inf) == {"__float__": "-inf"}
        assert canonical(np.float64("inf")) == {"__float__": "inf"}
        assert canonical_json([math.inf]) == '[{"__float__":"inf"}]'
        assert canonical_json(math.inf) != canonical_json("inf")

    def test_numpy_scalars_and_arrays(self):
        assert canonical(np.float64(0.5)) == 0.5
        assert canonical(np.int32(7)) == 7
        assert canonical(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert canonical(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_rng_identity_is_its_state(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        c = np.random.default_rng(43)
        assert canonical_json(a) == canonical_json(b)
        assert canonical_json(a) != canonical_json(c)
        # Consuming draws changes the state, and therefore the identity.
        a.random(4)
        assert canonical_json(a) != canonical_json(b)

    def test_dataclass_carries_qualified_name_and_fields(self):
        record = canonical(ScenarioParameters())
        assert record["__dataclass__"].endswith("ScenarioParameters")
        assert record["num_peers"] == ScenarioParameters().num_peers

    def test_dict_key_order_is_canonicalised(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_sets_are_sorted(self):
        assert canonical({3, 1, 2}) == [1, 2, 3]

    def test_enum_reduces_to_value(self):
        assert canonical(Colour.RED) == "red"

    def test_store_key_hook_wins_over_dict_state(self):
        zipf = ZipfDistribution(100, 1.2)
        record = canonical(zipf)
        assert record["state"] == {"n_keys": 100, "alpha": 1.2}

    def test_unrepresentable_objects_raise(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical(object())


class TestContentKey:
    INPUTS = {
        "params": ScenarioParameters(),
        "config": None,
        "seed": 0,
    }

    def test_key_is_sha256_hex_and_deterministic(self):
        key = content_key("costs", self.INPUTS)
        assert len(key) == 64
        assert key == content_key("costs", self.INPUTS)

    def test_key_changes_with_each_envelope_component(self):
        base = content_key("costs", self.INPUTS)
        assert content_key("churn_costs", self.INPUTS) != base
        assert (
            content_key("costs", {**self.INPUTS, "seed": 1}) != base
        )
        assert content_key("costs", self.INPUTS, version="0.0.0") != base
        assert content_key("costs", self.INPUTS, schema_rev=2) != base

    def test_key_defaults_to_package_version(self):
        explicit = content_key(
            "costs", self.INPUTS, version=repro.__version__
        )
        assert content_key("costs", self.INPUTS) == explicit

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            content_key("nonsense", self.INPUTS)

    def test_equal_dataclasses_key_equal(self):
        a = {"churn": ChurnConfig(1800.0, 600.0), "config": PdhtConfig(3600.0)}
        b = {"churn": ChurnConfig(1800.0, 600.0), "config": PdhtConfig(3600.0)}
        assert content_key("churn_costs", a) == content_key("churn_costs", b)

    def test_scenario_field_change_changes_key(self):
        base = content_key("costs", {"params": ScenarioParameters()})
        bumped = content_key(
            "costs",
            {
                "params": ScenarioParameters(
                    num_peers=ScenarioParameters().num_peers + 1
                )
            },
        )
        assert base != bumped
