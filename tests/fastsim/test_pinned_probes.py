"""Pinned seeded outputs of the two event-engine runs that re-place or
publish content mid-run.

An event staleness ``Cell`` (a ``SimulatedStrategy`` with a
``content_refresh_period``) re-places every key's replicas at each
content refresh, and ``calibrate_churn_costs`` publishes its
broadcast-walk probe keys next to the key universe and walks them across
a churned overlay. Neither is covered by
``tests/pdht/data/pinned_event.json`` (runs without refresh only) or
``benchmarks/e2e/expected.json`` (one scenario, through the store).
The staleness cases were recorded from the hand-written loop the
refreshing strategy replaced (``tests/pdht/test_staleness_equivalence.py``
keeps it). ``data/pinned_probes.json`` was recorded at ``0b1c543``,
before the content plane moved to one holder bitmask per key and the
placement draws to one bulk sampler call: 200 peers and 400 keys,
staleness at two keyTtl factors, churn costs at 75% and 50%
availability (the latter breaks the online overlay into pieces, so the
probe walks take the trapped tail). Every field is compared with ``==``
(the JSON floats round-trip through ``repr``).

Re-record (only in a PR that means to change the numbers) with
``PYTHONPATH=src python tests/fastsim/test_pinned_probes.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.execution import Cell
from repro.experiments.scenario import simulation_scenario
from repro.fastsim.compare import calibrate_churn_costs
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig

DATA = Path(__file__).parent / "data" / "pinned_probes.json"

SCALE = 0.01  # 200 peers, 400 keys
QUERY_FREQ = 1.0 / 5.0  # ~40 queries per round
SEED = 5

STALENESS = {
    # (ttl factor, duration, refresh period)
    "staleness-ttl1": (1.0, 90.0, 20.0),
    "staleness-ttl4": (4.0, 90.0, 15.0),
}
CHURN = {
    "churn-costs-a75": ChurnConfig(mean_session=60.0, mean_offline=20.0),
    "churn-costs-a50": ChurnConfig(mean_session=20.0, mean_offline=20.0),
}
CASES = [*STALENESS, *CHURN]


def capture(case: str) -> dict:
    params = simulation_scenario(scale=SCALE, query_freq=QUERY_FREQ)
    config = PdhtConfig.from_scenario(params)
    if case in STALENESS:
        factor, duration, period = STALENESS[case]
        report = Cell(
            params, config.with_ttl(config.key_ttl * factor), duration,
            seed=SEED, content_refresh_period=period,
        ).run()
        return {
            "stale_fraction": report.stale_hit_fraction,
            "hit_rate": report.hit_rate,
        }
    costs = calibrate_churn_costs(
        params, CHURN[case], config, seed=SEED, warmup=20.0, rounds=60.0,
        walk_probes=120,
    )
    return dataclasses.asdict(costs)


@pytest.mark.parametrize("case", CASES)
def test_probe_bit_identical_to_capture(case, telemetry):
    pinned = json.loads(DATA.read_text())
    assert capture(case) == pinned[case]
    if case == "churn-costs-a50":
        assert telemetry.counters.get("walk.trapped", 0) >= 1


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({case: capture(case) for case in CASES}, indent=1) + "\n"
    )
