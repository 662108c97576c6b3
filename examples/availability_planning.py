#!/usr/bin/env python
"""Replication planning against churn — the [VaCh02] substrate, closed.

The paper assumes "a mechanism to determine a proper replication factor
... to meet target levels of availability [VaCh02]" and moves on. This
example runs that mechanism: a churning population is observed by the
:class:`~repro.replication.availability.AvailabilityMonitor`, whose
estimate converges to the configured availability, and whose recommended
replication factor is then validated by measuring actual query success in
a PDHT using that factor.

Run with::

    python examples/availability_planning.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import PdhtConfig, PdhtNetwork
from repro.experiments import simulation_scenario
from repro.net.churn import ChurnConfig
from repro.net.node import PeerPopulation
from repro.replication.availability import (
    AvailabilityMonitor,
    availability_of,
    replication_for_availability,
)
from repro.sim.engine import Simulation
from repro.sim.rng import RandomStreams


def observe_churn(target: float) -> AvailabilityMonitor:
    """Let the monitor watch a churning population and converge."""
    streams = RandomStreams(seed=77)
    simulation = Simulation()
    population = PeerPopulation(300)
    churn_config = ChurnConfig(mean_session=1200.0, mean_offline=800.0)
    from repro.net.churn import ChurnProcess

    churn = ChurnProcess(simulation, population, churn_config, streams.get("churn"))
    churn.start()
    monitor = AvailabilityMonitor(target=target, alpha=0.02)
    probe_rng = streams.get("probes")
    for _ in range(120):
        simulation.run(until=simulation.now + 30.0)
        for peer_id in probe_rng.integers(0, 300, size=10):
            monitor.record(online=population.is_online(int(peer_id)))
    print(
        f"true availability {churn_config.availability:.2f}, "
        f"estimated {monitor.estimated_availability:.2f} "
        f"after {monitor.samples} probes"
    )
    return monitor


def validate(replication: int, availability: float) -> None:
    """Measure query success with the planned factor under churn."""
    params = replace(
        simulation_scenario(scale=0.02), replication=replication
    )
    config = PdhtConfig.from_scenario(params)
    mean_session = 1200.0
    mean_offline = mean_session * (1 - availability) / availability
    net = PdhtNetwork(
        params,
        config,
        seed=9,
        churn=ChurnConfig(mean_session=mean_session, mean_offline=mean_offline),
    )
    net.publish_all({f"key-{i:06d}": i for i in range(50)})
    answered = total = 0
    for _ in range(120):
        net.advance(5.0)
        origin = net.random_online_peer()
        outcome = net.query(origin, f"key-{total % 50:06d}")
        total += 1
        answered += int(outcome.found)
    print(
        f"  repl={replication:3d}: measured success {answered / total:.1%} "
        f"(bound 1-(1-a)^r = {availability_of(replication, availability):.3%})"
    )


def main() -> None:
    target = 0.999
    print(f"target availability: {target}\n")
    monitor = observe_churn(target)
    planned = monitor.recommended_replication()
    print(f"recommended replication factor: {planned}\n")

    print("validating factors around the recommendation under real churn:")
    availability = monitor.estimated_availability
    for factor in sorted({1, max(1, planned // 2), planned}):
        validate(factor, availability)

    exact = replication_for_availability(target, availability)
    print(
        f"\nclosed-form check: ceil(log(1-t)/log(1-a)) = {exact} "
        f"(monitor recommended {planned})"
    )


if __name__ == "__main__":
    main()
