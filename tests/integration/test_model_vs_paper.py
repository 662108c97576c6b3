"""Integration: the analytical model against every number the paper quotes.

Each test pins a quantitative statement from the paper's prose
(Sections 4-5) or a qualitative feature of one of its figures.
"""

from __future__ import annotations

import pytest

from repro.analysis.costs import CostModel
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import SelectionModel
from repro.analysis.sweep import sweep_frequencies
from repro.analysis.threshold import solve_threshold


@pytest.fixture(scope="module")
def params():
    return ScenarioParameters.paper_scenario()


@pytest.fixture(scope="module")
def sweep(params):
    return sweep_frequencies(params)


class TestSection4Prose:
    def test_20000_peers_store_and_index_all_articles(self, params):
        """'With replication factor of 50 we therefore need 20,000 peers to
        store and index all articles.'"""
        assert params.full_index_peers == 20_000

    def test_query_update_ratio_range(self, params):
        """'the average key query/update ratio varies between 1440/1 and
        6/1'."""
        assert params.query_update_ratio == pytest.approx(1440.0)
        assert params.with_query_freq(1 / 7200).query_update_ratio == pytest.approx(6.0)

    def test_env_constant(self, params):
        """'we therefore get a routing maintenance constant of
        env = 1/Log2(17,000) ~= 1/14'."""
        import math

        assert params.env == pytest.approx(1 / 14, rel=0.01)
        assert 1 / math.log2(17_000) == pytest.approx(1 / 14, rel=0.02)

    def test_crtn_outweighs_cupd(self, params):
        """'In this scenario, the maintenance cost (cRtn) clearly outweighs
        the update cost (cUpd).'"""
        model = CostModel.full_index(params)
        assert model.routing_maintenance > 50 * model.update

    def test_csunstr_considerably_higher_than_csindx(self, params):
        """'The cost of searching the unstructured network (cSUnstr) is
        usually considerably higher than the cost of searching the index.'"""
        model = CostModel.full_index(params)
        assert model.search_unstructured > 50 * model.search_index


class TestFig1:
    def test_partial_strictly_cheapest_everywhere(self, sweep):
        """'Ideal partial indexing is considerably cheaper for all query
        frequencies.'"""
        for point in sweep.points:
            s = point.strategies
            assert s.partial < s.index_all
            assert s.partial < s.no_index

    def test_no_index_dominates_at_high_freq(self, sweep):
        busy = sweep.points[0].strategies  # 1/30
        assert busy.no_index > busy.index_all

    def test_index_all_dominates_at_low_freq(self, sweep):
        calm = sweep.points[-1].strategies  # 1/7200
        assert calm.index_all > calm.no_index

    def test_no_index_at_busiest_is_480k(self, sweep):
        assert sweep.points[0].strategies.no_index == pytest.approx(480_000.0)


class TestFig2:
    def test_savings_band(self, sweep):
        """Fig. 2 plots savings in (0, 1] for both baselines across the
        sweep; vs-noIndex stays high at busy rates, vs-indexAll approaches
        1 at calm rates."""
        assert sweep.ideal_savings_vs_no_index[0] > 0.9
        assert sweep.ideal_savings_vs_index_all[-1] > 0.9
        # vs-noIndex declines towards the calm end, vs-indexAll climbs.
        assert (
            sweep.ideal_savings_vs_no_index[0]
            > sweep.ideal_savings_vs_no_index[-1]
        )
        assert (
            sweep.ideal_savings_vs_index_all[0]
            < sweep.ideal_savings_vs_index_all[-1]
        )

    def test_curves_cross_inside_sweep(self, sweep):
        diff = [
            a - n
            for a, n in zip(
                sweep.ideal_savings_vs_index_all, sweep.ideal_savings_vs_no_index
            )
        ]
        assert diff[0] < 0 < diff[-1]


class TestFig3:
    def test_index_shrinks_monotonically(self, sweep):
        fractions = sweep.index_fractions
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    def test_small_index_answers_most_queries(self, sweep):
        """'As the queries are Zipf distributed even a small index can
        answer a high percentage of queries': at 1/7200 the index holds
        ~1% of keys yet answers >80% of queries."""
        calm = sweep.points[-1].strategies.threshold
        assert calm.index_fraction < 0.05
        assert calm.p_indexed > 0.8
        assert all(
            point.strategies.threshold.p_indexed > 0.8
            for point in sweep.points
        )


class TestFig4:
    def test_substantial_savings_at_average_frequencies(self, sweep):
        """'partial indexing still realizes substantial savings, in
        particular for average query frequencies'."""
        mid = sweep.points[4].selection  # 1/600
        assert mid.savings_vs_index_all > 0.4
        assert mid.savings_vs_no_index > 0.4

    def test_savings_except_very_high_frequencies(self, sweep):
        """'there are still considerable savings compared to strategies
        that index all keys or broadcast all queries (except for very high
        query frequencies)'."""
        assert sweep.selection_savings_vs_index_all[0] < 0
        assert all(s > 0 for s in sweep.selection_savings_vs_index_all[-3:])
        assert all(s > 0 for s in sweep.selection_savings_vs_no_index)
        # Selection savings trail the ideal savings of Fig. 2 pointwise.
        assert all(
            selection <= ideal + 1e-9
            for selection, ideal in zip(
                sweep.selection_savings_vs_no_index,
                sweep.ideal_savings_vs_no_index,
            )
        )

    def test_selection_overhead_reasons_present(self, params):
        """Selection has overhead vs ideal (Section 5.1 lists reasons
        I-IV); overhead must be > 1x and < 10x across the sweep."""
        for period in (30, 600, 7200):
            scenario = params.with_query_freq(1 / period)
            ideal = solve_threshold(scenario)
            from repro.analysis.strategies import cost_partial_ideal

            ideal_cost = cost_partial_ideal(scenario, ideal)
            selection_cost = SelectionModel(scenario).total_cost()
            assert 1.0 < selection_cost / ideal_cost < 10.0


class TestScaleInvariance:
    def test_reduced_scenario_preserves_shapes(self, params):
        """The simulation preset (scaled 1/20) must show the same
        qualitative figure shapes as the paper scale."""
        reduced = params.scaled(0.05)
        sweep_small = sweep_frequencies(reduced)
        for point in sweep_small.points:
            s = point.strategies
            assert s.partial < s.index_all
            assert s.partial < s.no_index
        assert sweep_small.selection_savings_vs_index_all[0] < 0
        assert sweep_small.selection_savings_vs_index_all[-1] > 0
