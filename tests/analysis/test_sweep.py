"""Tests for the frequency sweep behind Figures 1-4."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import PAPER_FREQUENCIES, sweep_frequencies
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def paper_sweep():
    from repro.analysis.parameters import ScenarioParameters

    return sweep_frequencies(ScenarioParameters.paper_scenario())


class TestGrid:
    def test_paper_grid_has_eight_points(self):
        assert len(PAPER_FREQUENCIES) == 8
        assert PAPER_FREQUENCIES[0] == pytest.approx(1 / 30)
        assert PAPER_FREQUENCIES[-1] == pytest.approx(1 / 7200)

    def test_sweep_covers_grid(self, paper_sweep):
        assert paper_sweep.frequencies == list(PAPER_FREQUENCIES)

    def test_non_positive_frequency_rejected(self, paper_params):
        with pytest.raises(ParameterError):
            sweep_frequencies(paper_params, [0.0])

    def test_query_period_labels(self, paper_sweep):
        assert 1 / paper_sweep.points[0].query_freq == pytest.approx(30.0)
        assert 1 / paper_sweep.points[-1].query_freq == pytest.approx(7200.0)


class TestFig1Series:
    def test_no_index_strictly_decreasing_with_period(self, paper_sweep):
        costs = paper_sweep.no_index_costs
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_partial_below_both(self, paper_sweep):
        for partial, all_, none in zip(
            paper_sweep.partial_costs,
            paper_sweep.index_all_costs,
            paper_sweep.no_index_costs,
        ):
            assert partial < all_
            assert partial < none

    def test_index_all_nearly_flat(self, paper_sweep):
        costs = paper_sweep.index_all_costs
        assert max(costs) / min(costs) < 1.5


class TestFig2Series:
    def test_savings_monotone_directions(self, paper_sweep):
        vs_no = paper_sweep.ideal_savings_vs_no_index
        vs_all = paper_sweep.ideal_savings_vs_index_all
        # vs noIndex falls with the period; vs indexAll rises.
        assert all(a >= b for a, b in zip(vs_no, vs_no[1:]))
        assert all(a <= b for a, b in zip(vs_all, vs_all[1:]))


class TestFig3Series:
    def test_index_fraction_shrinks_with_period(self, paper_sweep):
        fractions = paper_sweep.index_fractions
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    def test_p_indexed_stays_high(self, paper_sweep):
        # Fig. 3: even a small index answers most queries.
        assert min(paper_sweep.p_indexed_values) > 0.8

    def test_p_indexed_above_fraction(self, paper_sweep):
        for p, frac in zip(paper_sweep.p_indexed_values, paper_sweep.index_fractions):
            assert p > frac


class TestFig4Series:
    def test_selection_worse_than_ideal(self, paper_sweep):
        for sel, ideal in zip(paper_sweep.selection_costs, paper_sweep.partial_costs):
            assert sel > ideal

    def test_selection_savings_vs_no_index_all_positive(self, paper_sweep):
        assert all(s > 0 for s in paper_sweep.selection_savings_vs_no_index)

    def test_selection_loses_to_index_all_only_at_high_freq(self, paper_sweep):
        savings = paper_sweep.selection_savings_vs_index_all
        # Negative at the busiest end, positive at the calm end.
        assert savings[0] < 0
        assert savings[-1] > 0
        # Once positive, stays positive as frequency decreases.
        first_positive = next(i for i, s in enumerate(savings) if s > 0)
        assert all(s > 0 for s in savings[first_positive:])


class TestCrossover:
    def test_crossover_inside_sweep(self, paper_sweep):
        crossover = paper_sweep.crossover_frequency()
        assert crossover is not None
        assert PAPER_FREQUENCIES[-1] <= crossover <= PAPER_FREQUENCIES[0]

    def test_crossover_none_when_broadcast_always_wins(self, paper_params):
        from dataclasses import replace

        # Make indexing absurdly expensive: probing at 100 msgs per entry
        # per second swamps any broadcast saving.
        pricey = replace(paper_params, env=100.0)
        sweep = sweep_frequencies(pricey)
        assert sweep.crossover_frequency() is None

    def test_empty_sweep_rejected(self, paper_params):
        with pytest.raises(ParameterError):
            sweep_frequencies(paper_params, [])
