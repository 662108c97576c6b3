"""Tests for the churn process."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.node import PeerPopulation
from repro.sim.engine import Simulation


class _Delays:
    """An rng stand-in: every peer starts online and the sessions and gaps
    last ``delays`` in turn (``last`` once they run out); records the
    mean of every draw."""

    def __init__(self, delays, last: float = 1e9) -> None:
        self._delays = iter(delays)
        self.last = last
        self.means: list[float] = []

    def random(self) -> float:
        return 0.0

    def exponential(self, mean: float) -> float:
        self.means.append(mean)
        return next(self._delays, self.last)


def _flips(population: PeerPopulation) -> list[int]:
    """Log the peers whose liveness is set, in order."""
    flipped: list[int] = []
    set_online = population.set_online
    population.set_online = lambda peer, online: (
        flipped.append(peer), set_online(peer, online)
    )
    return flipped


def _scripted(peers: int, delays, last: float = 1e9):
    population = PeerPopulation(peers)
    rng = _Delays(delays, last)
    process = ChurnProcess(
        population, ChurnConfig(mean_session=5.0, mean_offline=2.0), rng
    )
    process.start()
    return process, population, rng


@pytest.fixture
def churn_setup(rng):
    population = PeerPopulation(300)
    config = ChurnConfig(mean_session=100.0, mean_offline=50.0)
    process = ChurnProcess(population, config, rng)
    sim = Simulation(churn=process)
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
        assert sim.processed_events > 100

    def test_run_until_returns_transitions_applied(self, churn_setup):
        _, population, _, process = churn_setup
        process.start()
        before = population.liveness_epoch
        applied = process.run_until(500.0)
        assert applied > 100
        assert population.liveness_epoch - before == applied
        assert process.run_until(500.0) == 0

    def test_transitions_apply_in_time_order(self):
        process, population, _ = _scripted(4, [3.0, 0.5, 2.0, 1.0])
        flipped = _flips(population)
        assert process.run_until(10.0) == 4
        assert flipped == [1, 3, 2, 0]

    def test_equal_times_apply_in_the_order_they_were_drawn(self):
        process, population, _ = _scripted(4, [], last=1.0)
        flipped = _flips(population)
        assert process.run_until(2.0) == 8
        assert flipped == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_a_transition_drawn_during_a_run_applies_in_it(self):
        process, population, _ = _scripted(3, [], last=0.4)
        # Every peer flips at 0.4 and 0.8: back online by 1.0.
        assert process.run_until(1.0) == 6
        assert population.sorted_online_ids() == (0, 1, 2)

    def test_nothing_applies_before_the_first_transition(self):
        process, population, _ = _scripted(3, [], last=2.0)
        assert process.run_until(1.99) == 0
        assert population.liveness_epoch == 0

    def test_an_earlier_time_applies_nothing(self):
        process, population, _ = _scripted(3, [], last=2.0)
        assert process.run_until(3.0) == 3
        assert process.run_until(1.0) == 0
        assert population.sorted_online_ids() == ()

    def test_online_peers_draw_a_session_offline_peers_a_gap(self):
        process, _, rng = _scripted(1, [], last=1.0)
        process.run_until(3.0)
        # Start online (session), then off (gap), on, off.
        assert rng.means == [5.0, 2.0, 5.0, 2.0]

    def test_same_seed_same_transitions(self):
        def run(seed):
            population = PeerPopulation(50)
            process = ChurnProcess(
                population, ChurnConfig(mean_session=3.0, mean_offline=1.0),
                np.random.default_rng(seed),
            )
            process.start()
            trace = []
            for until in (0.5, 1.0, 4.0, 9.5):
                trace.append((process.run_until(until),
                              population.sorted_online_ids()))
            return trace

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_long_run_availability_converges(self, churn_setup):
        sim, population, config, process = churn_setup
        process.start()
        sim.run(until=2000.0)
        assert len(population.online_ids) / len(population) == pytest.approx(
            config.availability, abs=0.1
        )
