"""Probe-based routing-table maintenance [MaCa03] — the cost behind Eq. 8.

"One possible strategy is to probe routing entries with a given rate to
detect offline peers" (Section 3.3.1). [MaCa03] measured, for Pastry on a
17,000-peer Gnutella trace, about one probe message per peer per second,
which the paper converts into the environment constant

    env = 1 / log2(17000) ~= 1/14   [probes per routing entry per second]

Stale entries are *detected* by probes (costed here) and *repaired* for
free by piggybacking routing information on queries (the paper's explicit
assumption); P-Grid realises the free repair by skipping offline entries
at routing time.

:class:`RoutingMaintenance` can run in two modes:

* **expected-cost mode** (default) — each round charges
  ``env * table_size`` messages per online member, fractional messages
  allowed; this matches the analytical model exactly and is fast.
* **sampled mode** — probes are drawn Bernoulli(env) per entry per round,
  producing integer message counts and per-probe stale/fresh outcomes;
  slower, used by tests that want to see actual probe traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.dht.base import DistributedHashTable
from repro.errors import ParameterError
from repro.net.messages import MessageKind
from repro.sim.engine import Simulation

__all__ = ["MaintenanceConfig", "RoutingMaintenance"]

#: The paper's default environment constant (from [MaCa03], see above).
DEFAULT_ENV = 1.0 / 14.0


@dataclass(frozen=True)
class MaintenanceConfig:
    """Maintenance parameters.

    Attributes
    ----------
    env:
        Probe rate per routing entry per second.
    interval:
        Rounds between maintenance sweeps (probes accumulate linearly, so
        a sweep every ``interval`` rounds sends ``env * interval`` probes
        per entry).
    sampled:
        Use Bernoulli sampling instead of expected-cost accounting.
    """

    env: float = DEFAULT_ENV
    interval: float = 1.0
    sampled: bool = False

    def __post_init__(self) -> None:
        if self.env < 0:
            raise ParameterError(f"env must be >= 0, got {self.env}")
        if self.interval <= 0:
            raise ParameterError(f"interval must be > 0, got {self.interval}")


class RoutingMaintenance:
    """Periodic probing of every online member's routing table."""

    def __init__(
        self,
        dht: DistributedHashTable,
        config: MaintenanceConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        if config.sampled and rng is None:
            raise ParameterError("sampled maintenance needs an rng")
        self.dht = dht
        self.config = config
        self.rng = rng
        self.probes_sent = 0.0
        self.stale_detected = 0
        self.sweeps = 0
        self._sizes: list[int] = []
        self._sizes_key: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    def run_sweep(self) -> float:
        """One maintenance sweep; returns messages charged."""
        per_entry = self.config.env * self.config.interval
        charged = 0.0
        # A sweep attached to a simulation runs inside its ``engine.run``,
        # whose duration includes this one.
        with obs.span("dht.maintenance"):
            if self.config.sampled:
                for member in self.dht.online_view():
                    table = self.dht.routing_table(member)
                    if table:
                        charged += self._sampled_probes(
                            member, table, per_entry
                        )
            else:
                # One member at a time, ascending by id, never their sum:
                # the counters are float accumulators, and ``a + (b + c)``
                # is not ``(a + b) + c`` in the last bits of a simulated
                # msg/s.
                charges = [per_entry * size for size in self._table_sizes()]
                self.dht.log.metrics.count_each(
                    MessageKind.ROUTING_PROBE.category, charges
                )
                probes_sent = self.probes_sent
                for messages in charges:
                    probes_sent += messages
                    charged += messages
                self.probes_sent = probes_sent
        self.sweeps += 1
        return charged

    def _table_sizes(self) -> list[int]:
        """Routing-table size of every online member that has entries to
        probe, ascending by member id; read off the tables once per
        :attr:`~repro.dht.base.DistributedHashTable.view_key`."""
        key = self.dht.view_key
        if key != self._sizes_key:
            tables = map(self.dht.routing_table, self.dht.online_view())
            self._sizes = [len(table) for table in tables if table]
            self._sizes_key = key
        return self._sizes

    def _sampled_probes(self, member, table, per_entry: float) -> int:
        # Expected probes per entry can exceed 1 for long intervals; send
        # floor(k) deterministic probes plus a Bernoulli(frac) extra.
        whole = int(math.floor(per_entry))
        frac = per_entry - whole
        sent = 0
        for entry in table:
            probes = whole + (1 if self.rng.random() < frac else 0)
            for _ in range(probes):
                self.dht.log.send(MessageKind.ROUTING_PROBE, member, entry)
                sent += 1
                if not self.dht.population.is_online(entry):
                    self.stale_detected += 1
        self.probes_sent += sent
        return sent

    # ------------------------------------------------------------------
    def attach(self, simulation: Simulation):
        """Schedule recurring sweeps on a simulation; returns the controller
        event (cancel it to stop maintenance)."""
        return simulation.every(
            self.config.interval, self.run_sweep, label="routing-maintenance"
        )

    def expected_rate(self) -> float:
        """Analytical msg/s this maintenance should cost right now.

        ``env * sum(table sizes of online members)`` — compare with Eq. 8,
        which expresses the same traffic as
        ``env * log2(numActivePeers) * numActivePeers`` under the idealised
        ``log2(n)``-sized table.
        """
        return self.config.env * sum(self._table_sizes())
