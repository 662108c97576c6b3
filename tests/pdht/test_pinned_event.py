"""Pinned seeded event-engine outputs: the substrate must not move a bit.

``benchmarks/e2e/expected.json`` guards the event engine on one scenario
at rel 1e-9 and ``tests/fastsim/data/pinned_reports.json`` covers the
vectorized kernel alone. This capture pins the event substrate itself:
``data/pinned_event.json`` was recorded at commit ``b016759`` — before
the ISSUE 19 membership views touched ``dht/``, ``replication/`` or
``sim/metrics.py`` — on a 200-peer / 400-key / 40-round grid: the four
Fig. 1 strategies x {no churn, churn} on P-Grid. Every count and
every ``messages_by_category`` value is compared with ``==`` (the JSON
floats round-trip through ``repr``), and the category *order* is pinned
too: ``MessageMetrics._totals`` is a ``defaultdict`` whose first-touch
order shows through ``totals_by_category()`` and decides the summation
order of ``total_messages``.

The two ``*-churn50-pgrid`` cases (noIndex and partialSelection at 50%
availability) were recorded at ``bfbf49e``, before a k-walker search
trapped in an online component with no replica was finished in closed
form. The online overlay breaks into small pieces there, so both runs
take that tail (``walk.trapped``), and their figures hold it to the
hop-by-hop walk it shortcuts.

``mean_index_size`` and the final ``PdhtNetwork.index_size()`` (kept here
as ``_index_size``) were added to all ten cases at ``6e9f4bf``, before the index stores moved to one
shared ``(value, expires_at)`` record per replica-group write; the other
fields of every case were left as recorded. A store change that drops an
``inf`` entry, or lets a shared record expire at every member at once,
shows here as a smaller index.

Re-record (only in a PR that means to change the numbers) with
``PYTHONPATH=src python tests/pdht/test_pinned_event.py``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.analysis.strategies import STRATEGY_NAMES
from repro.experiments.scenario import simulation_scenario
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import SimulatedStrategy

DATA = Path(__file__).parent / "data" / "pinned_event.json"

SCALE = 0.01  # 200 peers, 400 keys
QUERY_FREQ = 1.0 / 5.0  # ~40 queries per round
DURATION = 40.0
SEED = 11
#: Short sessions so that real liveness transitions (and so membership
#: view rebuilds) happen many times inside 40 rounds.
CHURN = ChurnConfig(mean_session=60.0, mean_offline=20.0)
#: Half the peers offline at any time: the online overlay is in pieces.
CHURN50 = ChurnConfig(mean_session=20.0, mean_offline=20.0)
CHURNS = {"static": None, "churn": CHURN, "churn50": CHURN50}

CASES = [
    f"{strategy}-{'churn' if churned else 'static'}-pgrid"
    for strategy, churned in itertools.product(STRATEGY_NAMES, (False, True))
] + ["noIndex-churn50-pgrid", "partialSelection-churn50-pgrid"]


def _index_size(network) -> int:
    """Live (unexpired) index entries across all members, counting each
    key once per replica group it lives in (what
    ``PdhtNetwork.index_size()`` returned when the runs were recorded)."""
    now = network.simulation.now
    return sum(len(index.live_keys(now)) for index in network.indexes)


def capture(case: str) -> dict:
    strategy, churned, _ = case.split("-")
    params = simulation_scenario(scale=SCALE, query_freq=QUERY_FREQ)
    runner = SimulatedStrategy(
        params,
        PdhtConfig.from_scenario(params),
        strategy=strategy,
        seed=SEED,
        churn=CHURNS[churned],
    )
    report = runner.run(DURATION)
    totals = {
        category.value: total
        for category, total in report.messages_by_category.items()
    }
    return {
        "queries": report.queries,
        "answered": report.answered,
        "index_hits": report.index_hits,
        "messages_by_category": [list(item) for item in totals.items()],
        "total_messages": report.total_messages,
        # Recorded when maintenance and the gateway cache kept counters
        # of their own; they were the MAINTENANCE total, one sweep a round
        # where the DHT runs, and one probe per two MEMBERSHIP messages.
        "probes_sent": totals.get("maintenance", 0.0),
        "sweeps": int(DURATION) if "maintenance" in totals else 0,
        "bootstrap_probes": int(totals.get("membership", 0)) // 2,
        "mean_index_size": report.mean_index_size,
        "index_size": _index_size(runner.network),
    }


@pytest.mark.parametrize("case", CASES)
def test_event_engine_bit_identical_to_capture(case, telemetry):
    pinned = json.loads(DATA.read_text())
    assert capture(case) == pinned[case]
    if "-churn50-" in case:
        assert telemetry.counters.get("walk.trapped", 0) >= 1


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({case: capture(case) for case in CASES}, indent=1) + "\n"
    )
