"""Tests for scenario serialisation."""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError


class TestDictRoundtrip:
    def test_roundtrip_identity(self, paper_params):
        assert ScenarioParameters.from_dict(paper_params.to_dict()) == paper_params

    def test_unknown_field_rejected(self):
        payload = ScenarioParameters().to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ParameterError):
            ScenarioParameters.from_dict(payload)

    def test_partial_dict_uses_defaults(self):
        params = ScenarioParameters.from_dict({"num_peers": 5_000})
        assert params.num_peers == 5_000
        assert params.n_keys == 40_000  # default

    def test_invalid_values_still_validated(self):
        with pytest.raises(ParameterError):
            ScenarioParameters.from_dict({"num_peers": -5})

