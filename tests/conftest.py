"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageCategory, MessageMetrics


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(12345))


class ScriptedUniforms:
    """Stands in for a ``Generator`` whose only draws are ``random(n)``:
    serves a fixed sequence of uniforms, so a test can put a draw exactly
    on a CDF value or a bucket edge."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.served = 0

    def random(self, size: int) -> np.ndarray:
        chunk = self.values[self.served : self.served + size]
        assert chunk.size == size, "script exhausted"
        self.served += size
        return chunk.copy()


@pytest.fixture
def scripted_uniforms() -> type[ScriptedUniforms]:
    return ScriptedUniforms


@pytest.fixture
def small_params() -> ScenarioParameters:
    """A tiny but structurally faithful scenario (fast to simulate)."""
    return ScenarioParameters(
        num_peers=200,
        n_keys=400,
        storage_per_peer=100,
        replication=20,
        alpha=1.2,
        query_freq=1.0 / 30.0,
        update_freq=1.0 / (3600.0 * 24.0),
        env=1.0 / 14.0,
        dup=1.8,
        dup2=1.8,
    )


@pytest.fixture
def paper_params() -> ScenarioParameters:
    return ScenarioParameters.paper_scenario()


@pytest.fixture
def population() -> PeerPopulation:
    return PeerPopulation(64)


@pytest.fixture
def metrics() -> MessageMetrics:
    return MessageMetrics()


class CountRecorder:
    """Records what is counted into one :class:`MessageMetrics`.

    Wraps the instance's ``count`` and ``count_each``; :attr:`calls` holds
    the ``(category, amount)`` of each, in call order — one entry per
    amount of a ``count_each``. A zero ``count`` touches nothing and is
    not recorded.
    """

    def __init__(self, metrics: MessageMetrics) -> None:
        self.calls: list[tuple[MessageCategory, float]] = []
        count, count_each = metrics.count, metrics.count_each

        def recording_count(category, messages=1.0):
            count(category, messages)
            if messages:
                self.calls.append((category, messages))

        def recording_count_each(category, amounts):
            count_each(category, amounts)
            self.calls.extend((category, amount) for amount in amounts)

        metrics.count = recording_count
        metrics.count_each = recording_count_each


@pytest.fixture(scope="session")
def recorder() -> type[CountRecorder]:
    """:class:`CountRecorder`: ``recorder(metrics).calls``. Session-scoped,
    so a Hypothesis test may take it."""
    return CountRecorder


@pytest.fixture
def telemetry():
    """Telemetry on, into a fresh collector, for the test body: yields
    that collector. The process-global collector and enabled flag are
    restored afterwards."""
    from repro import obs

    was_enabled = obs.enabled()
    obs.enable()
    previous = obs.set_collector(obs.Collector())
    try:
        yield obs.collector()
    finally:
        obs.set_collector(previous)
        if not was_enabled:
            obs.disable()
