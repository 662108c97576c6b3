"""Tests for the churn process."""

from __future__ import annotations

import math

import pytest

from repro.errors import ParameterError
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.node import PeerPopulation
from repro.sim.engine import Simulation


@pytest.fixture
def churn_setup(rng):
    sim = Simulation()
    population = PeerPopulation(300)
    config = ChurnConfig(mean_session=100.0, mean_offline=50.0)
    process = ChurnProcess(sim, population, config, rng)
    return sim, population, config, process


class TestChurnConfig:
    def test_availability(self):
        config = ChurnConfig(mean_session=1800.0, mean_offline=600.0)
        assert config.availability == pytest.approx(0.75)

    @pytest.mark.parametrize("kwargs", [
        {"mean_session": 0.0},
        {"mean_offline": -1.0},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ParameterError):
            ChurnConfig(**kwargs)

    @pytest.mark.parametrize("field", ["mean_session", "mean_offline"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_non_finite_or_boolean_mean_rejected(self, field, value):
        # Refused at construction: NaN and inf used to fail only later,
        # inside the churn process or an availability check, and True ran
        # 1-second sessions.
        with pytest.raises(ParameterError, match=field):
            ChurnConfig(**{field: value})


class TestChurnProcess:
    def test_start_sets_stationary_fraction(self, churn_setup):
        sim, population, config, process = churn_setup
        process.start()
        observed = len(population.online_ids) / len(population)
        assert observed == pytest.approx(config.availability, abs=0.12)

    def test_transitions_happen(self, churn_setup):
        sim, _, _, process = churn_setup
        process.start()
        sim.run(until=500.0)
        assert process.transitions > 100

    def test_long_run_availability_converges(self, churn_setup):
        sim, population, config, process = churn_setup
        process.start()
        sim.run(until=2000.0)
        assert len(population.online_ids) / len(population) == pytest.approx(
            config.availability, abs=0.1
        )
