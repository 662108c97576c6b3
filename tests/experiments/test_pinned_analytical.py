"""Pinned analytical figures: the closed-form model must not move a bit.

``data/pinned_analytical.json`` holds the ``figure_payload`` of each of
the seven analytical experiments (Table 1, Fig. 1-4, the keyTtl
sensitivity and the heuristic-vs-optimal gaps) as recorded before the
closed-form model stopped taking a ``ZipfDistribution``. Every figure
must come back ``==``, not approximately: they are functions of the
paper scenario alone, and one ulp in a ``probT`` can move ``maxRank``.
The seven take about a third of a second together.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.experiments.api import ANALYTICAL, iter_specs, run
from repro.experiments.export import figure_payload

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_analytical.json").read_text()
)


def test_every_analytical_experiment_is_pinned():
    analytical = {spec.name for spec in iter_specs() if spec.kind == ANALYTICAL}
    assert analytical == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_figure_equals_the_pinned_payload(name):
    assert figure_payload(run(name).figure) == PINNED[name]


def test_the_closed_form_model_builds_no_distribution(monkeypatch):
    # Eq. 3-5 are read off the cached Eq. 3 array; a ZipfDistribution
    # (and its CDF) exists only to draw queries.
    built = []
    original = ZipfDistribution.__init__

    def recording(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ZipfDistribution, "__init__", recording)
    for name in sorted(PINNED):
        run(name)
    assert built == []
