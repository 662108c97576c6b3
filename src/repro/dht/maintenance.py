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

:class:`RoutingMaintenance` charges the probes in expectation: each round
every online member pays ``env * table_size`` messages, fractional
messages allowed — the analytical model's expected traffic.
"""

from __future__ import annotations

from repro import obs
from repro.dht.pgrid import PGridDht
from repro.errors import ParameterError
from repro.sim.metrics import MessageCategory

__all__ = ["RoutingMaintenance"]

#: The paper's default environment constant (from [MaCa03], see above).
DEFAULT_ENV = 1.0 / 14.0


class RoutingMaintenance:
    """Once-a-round probing of every online member's routing table.

    ``env`` is the probe rate per routing entry per round, fixed at
    construction.
    """

    def __init__(
        self, dht: PGridDht, env: float = DEFAULT_ENV
    ) -> None:
        if env < 0:
            raise ParameterError(f"env must be >= 0, got {env}")
        self.dht = dht
        self.env = env
        self._sizes_charges: tuple[tuple[int, ...], tuple[float, ...]] = (
            (), ()
        )
        self._view_key: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    def run_sweep(self) -> None:
        """One maintenance sweep, counted as MAINTENANCE messages."""
        # A sweep run as a simulation's round hook runs inside its
        # ``engine.run``, whose duration includes this one.
        with obs.span("dht.maintenance"):
            # One member at a time, ascending by id, never their sum: the
            # counters are float accumulators, and ``a + (b + c)`` is not
            # ``(a + b) + c`` in the last bits of a simulated msg/s.
            self.dht.metrics.count_each(
                MessageCategory.MAINTENANCE, self._view()[1]
            )

    def _view(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Routing-table size of every online member that has entries to
        probe, ascending by member id, and ``env`` times each (what a
        sweep charges that member); read off the tables once per
        :attr:`~repro.dht.pgrid.PGridDht.view_key`."""
        key = self.dht.view_key
        if key != self._view_key:
            tables = map(self.dht.routing_table, self.dht.online_view())
            sizes = tuple([len(table) for table in tables if table])
            env = self.env
            self._sizes_charges = sizes, tuple([env * size for size in sizes])
            self._view_key = key
        return self._sizes_charges

    def expected_rate(self) -> float:
        """Analytical msg/s this maintenance should cost right now.

        ``env * sum(table sizes of online members)`` — compare with Eq. 8,
        which expresses the same traffic as
        ``env * log2(numActivePeers) * numActivePeers`` under the idealised
        ``log2(n)``-sized table.
        """
        return self.env * sum(self._view()[0])
