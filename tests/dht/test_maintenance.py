"""Tests for probe-based routing maintenance (Eq. 8's traffic)."""

from __future__ import annotations

import pytest

from repro.dht.maintenance import RoutingMaintenance
from repro.dht.pgrid import PGridDht
from repro.errors import ParameterError
from repro.net.node import PeerPopulation
from repro.sim.engine import Simulation
from repro.sim.metrics import MessageCategory, MessageMetrics


@pytest.fixture
def dht():
    population = PeerPopulation(80)
    metrics = MessageMetrics()
    instance = PGridDht(population, metrics)
    instance.join_all(range(64))
    instance.responsible_for("warmup")
    return instance


def charged(dht) -> float:
    """MAINTENANCE messages counted so far."""
    return dht.metrics.total(MessageCategory.MAINTENANCE)


class TestConfig:
    def test_defaults(self, dht):
        assert RoutingMaintenance(dht).env == pytest.approx(1 / 14)

    @pytest.mark.parametrize("kwargs", [{"env": -0.1}])
    def test_invalid(self, dht, kwargs):
        with pytest.raises(ParameterError):
            RoutingMaintenance(dht, **kwargs)


class TestExpectedMode:
    def test_sweep_charges_env_times_entries(self, dht):
        RoutingMaintenance(dht, env=0.1).run_sweep()
        total_entries = sum(
            len(dht.routing_table(m)) for m in dht.online_members()
        )
        assert charged(dht) == pytest.approx(0.1 * total_entries)

    def test_offline_members_do_not_probe(self, dht):
        RoutingMaintenance(dht, env=0.1).run_sweep()
        full = charged(dht)
        dht.metrics.reset()
        for member in list(dht._members)[:32]:
            dht.population.set_online(member, False)
        RoutingMaintenance(dht, env=0.1).run_sweep()
        assert charged(dht) < full

    def test_expected_rate_matches_sweep(self, dht):
        maintenance = RoutingMaintenance(dht, env=0.25)
        maintenance.run_sweep()
        assert charged(dht) == pytest.approx(maintenance.expected_rate())


class TestScheduling:
    def test_round_hook_sweeps_once_a_round(self, dht):
        maintenance = RoutingMaintenance(dht, env=0.1)
        simulation = Simulation(round_hook=maintenance.run_sweep)
        simulation.run(until=10.0)
        ten_sweeps = charged(dht)
        assert ten_sweeps == pytest.approx(10 * maintenance.expected_rate())
        simulation.round_hook = None
        simulation.run(until=20.0)
        assert charged(dht) == ten_sweeps
