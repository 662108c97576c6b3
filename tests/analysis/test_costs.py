"""Tests for the cost building blocks (Eq. 6-10, 16).

Anchor values come straight from the paper's Section 4 prose:
cSUnstr = 20000/50 * 1.8 = 720; cSIndx ~ 7.14 for 20,000 active peers;
cRtn clearly outweighs cUpd.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.costs import (
    CostModel,
    c_routing_maintenance,
    c_search_index,
    c_search_index_with_replicas,
    c_search_unstructured,
    c_update,
)
from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError


class TestEq6:
    def test_paper_anchor_720(self):
        assert c_search_unstructured(20_000, 50, 1.8) == pytest.approx(720.0)

    def test_scales_inversely_with_replication(self):
        assert c_search_unstructured(1000, 10, 1.0) == pytest.approx(
            2 * c_search_unstructured(1000, 20, 1.0)
        )

    def test_duplication_multiplies(self):
        base = c_search_unstructured(1000, 10, 1.0)
        assert c_search_unstructured(1000, 10, 2.0) == pytest.approx(2 * base)

    @pytest.mark.parametrize("bad", [(0, 50, 1.8), (100, 0, 1.8), (100, 50, 0.5)])
    def test_invalid_inputs(self, bad):
        with pytest.raises(ParameterError):
            c_search_unstructured(*bad)


class TestEq7:
    def test_paper_anchor(self):
        assert c_search_index(20_000) == pytest.approx(0.5 * math.log2(20_000))

    def test_zero_and_single_peer_free(self):
        assert c_search_index(0) == 0.0
        assert c_search_index(1) == 0.0

    def test_doubling_network_adds_half_hop(self):
        assert c_search_index(2048) - c_search_index(1024) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            c_search_index(-1)


class TestEq16:
    def test_adds_replica_flood(self):
        assert c_search_index_with_replicas(20_000, 50, 1.8) == pytest.approx(
            c_search_index(20_000) + 90.0
        )

    def test_flood_dominates_lookup_at_paper_scale(self):
        cs2 = c_search_index_with_replicas(20_000, 50, 1.8)
        assert cs2 > 10 * c_search_index(20_000)


class TestEq8:
    def test_paper_anchor_half_message(self):
        # env * log2(20000) * 20000 / 40000 ~= 0.51 msg/s per key.
        crtn = c_routing_maintenance(1 / 14, 20_000, 40_000)
        assert crtn == pytest.approx(0.51, abs=0.01)

    def test_zero_keys_is_free(self):
        assert c_routing_maintenance(1 / 14, 100, 0) == 0.0

    def test_single_peer_needs_no_probing(self):
        assert c_routing_maintenance(1 / 14, 1, 100) == 0.0

    def test_proportional_to_env(self):
        a = c_routing_maintenance(0.1, 1000, 500)
        b = c_routing_maintenance(0.2, 1000, 500)
        assert b == pytest.approx(2 * a)


class TestEq9Eq10:
    def test_update_cost_formula(self):
        cupd = c_update(20_000, 50, 1.8, 1 / 86_400)
        expected = (c_search_index(20_000) + 90.0) / 86_400
        assert cupd == pytest.approx(expected)

    def test_zero_update_freq_is_free(self):
        assert c_update(100, 10, 1.8, 0.0) == 0.0

    def test_paper_claim_crtn_outweighs_cupd(self):
        # Section 4: "the maintenance cost (cRtn) clearly outweighs the
        # update cost (cUpd)".
        crtn = c_routing_maintenance(1 / 14, 20_000, 40_000)
        cupd = c_update(20_000, 50, 1.8, 1 / 86_400)
        assert crtn > 100 * cupd
        # cRtn is update-independent, cUpd linear in the update
        # frequency: by once-a-minute updates the claim has flipped.
        assert c_update(20_000, 50, 1.8, 1 / 60) > crtn


class TestCostModel:
    def test_full_index_active_peers(self, paper_params):
        model = CostModel.full_index(paper_params)
        assert model.num_active_peers == 20_000

    def test_partial_index_active_peers(self, paper_params):
        model = CostModel(params=paper_params, indexed_keys=4_000)
        assert model.num_active_peers == 2_000

    def test_search_advantage_positive_at_paper_scale(self, paper_params):
        model = CostModel.full_index(paper_params)
        assert model.search_advantage == pytest.approx(720.0 - model.search_index)

    def test_negative_indexed_keys_rejected(self, paper_params):
        with pytest.raises(ParameterError):
            CostModel(params=paper_params, indexed_keys=-1.0)

    def test_empty_index_has_free_maintenance(self, paper_params):
        model = CostModel(params=paper_params, indexed_keys=0.0)
        assert model.routing_maintenance == 0.0
        assert model.index_key == 0.0

    def test_smaller_index_cheaper_lookups(self, paper_params):
        small = CostModel(params=paper_params, indexed_keys=1_000)
        large = CostModel(params=paper_params, indexed_keys=40_000)
        assert small.search_index < large.search_index
