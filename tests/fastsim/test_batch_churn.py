"""Tests for vectorized churn (parity with repro.net.churn): the flip rule
in :class:`~repro.fastsim.inputs.RoundInputs` and the online count that
:class:`~repro.fastsim.state.FastSimState` keeps next to the mask."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.fastsim.inputs import RoundInputs
from repro.fastsim.state import FastSimState
from repro.net.churn import ChurnConfig


def all_online(params, num_peers):
    """A member-less state over ``num_peers`` peers, every one online."""
    return FastSimState(replace(params, num_peers=num_peers))


def test_initialise_hits_stationary_availability(small_params):
    config = ChurnConfig(mean_session=1800.0, mean_offline=600.0)
    state = all_online(small_params, 20_000)
    state.set_online(RoundInputs(12345).churn_start(20_000, config))
    assert abs(state.online.mean() - config.availability) < 0.02
    assert state.online_count == int(state.online.sum())


def test_long_run_fraction_converges(small_params):
    config = ChurnConfig(mean_session=50.0, mean_offline=50.0)
    inputs = RoundInputs(12345)
    state = all_online(small_params, 5_000)  # deliberately off steady state
    for _ in range(400):
        state.flip(inputs.churn_flips(state.online, config))
    assert abs(state.online.mean() - 0.5) < 0.05


def test_transition_rate_matches_event_model(small_params):
    # Expected flips per peer per round: 1/mean_session while online.
    config = ChurnConfig(mean_session=100.0, mean_offline=100.0)
    state = all_online(small_params, 10_000)
    mask = RoundInputs(12345).churn_flips(state.online, config)
    flips = state.flip(mask)
    expected = 10_000 * (1.0 - np.exp(-1.0 / 100.0))
    assert abs(flips - expected) < 4 * np.sqrt(expected)
    assert flips == int(mask.sum())
    assert state.online_count == 10_000 - flips  # every flip went offline
