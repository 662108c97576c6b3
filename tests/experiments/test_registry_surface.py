"""The registry's public surface, pinned literally.

Each experiment is declared once, by naming its figure function; its
``accepts`` and defaults come from that function's signature, and the
runner's flags come from ``ExperimentParams``. These literals were
captured before the declarations were derived, so a signature edit that
moves what an experiment accepts, its defaults, the ``--list`` text or
the flag set fails here.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.experiments.api import ExperimentParams, iter_specs
from repro.experiments.runner import _parser, main

LISTING = """\
name                kind        engines             title
table1              analytical  -                   Table 1 - parameters of the sample scenario
fig1                analytical  -                   Fig. 1 - total cost vs query frequency
fig2                analytical  -                   Fig. 2 - savings of ideal partial indexing
fig3                analytical  -                   Fig. 3 - indexed fraction and pIndxd
fig4                analytical  -                   Fig. 4 - savings with the selection algorithm
keyttl              analytical  -                   Sec. 5.1.1 - keyTtl estimation-error sensitivity
optimal             analytical  -                   Extension - heuristics vs exact optima
sim                 simulated   event*,vectorized   Sec. 5.2 - simulated strategies vs the analytical model
adaptivity          simulated   event*,vectorized   Sec. 5.2 - hit rate under a query-distribution shift
adaptivity-tracking simulated   vectorized*,event   Extension - selection vs partialIdeal oracle across workload models
adaptivity-lag      simulated   vectorized*,event   Extension - per-model convergence lag after the first workload shift
churn               simulated   event*,vectorized   Extension - selection algorithm under churn
staleness           simulated   event*,vectorized   Extension - index staleness without proactive updates
simfig1             simulated   event*,vectorized   Fig. 1 regenerated in simulation
sweep               simulated   vectorized*         Sweep - keyTtl x alpha x fQry grid at paper scale (fastsim)
                                gated: the grid runs Table 1 at full scale (and beyond, via --scale); only the vectorized batch kernel is tractable there
sweep-optimal       simulated   vectorized*         Sweep - optimal keyTtl cell per alpha|fQry slice (fastsim)
                                gated: derived from the paper-scale sweep grid; only the vectorized batch kernel is tractable there

(* = default engine; 'all' runs every experiment)
"""

_SIM = ("duration", "engine", "jobs", "replicates", "scale", "seed", "store")
_SHIFT = ("shift_at", "window")

#: name -> (engines, accepts, set defaults), in registration order.
SPECS = {
    "table1": ((), (), {}),
    "fig1": ((), (), {}),
    "fig2": ((), (), {}),
    "fig3": ((), (), {}),
    "fig4": ((), (), {}),
    "keyttl": ((), (), {}),
    "optimal": ((), (), {}),
    "sim": (
        ("event", "vectorized"), _SIM,
        {"duration": 300.0, "seed": 0, "scale": 0.05},
    ),
    "adaptivity": (
        ("event", "vectorized"), _SIM + _SHIFT,
        {"duration": 1200.0, "seed": 0, "scale": 0.05},
    ),
    "adaptivity-tracking": (
        ("vectorized", "event"), _SIM + _SHIFT + ("workload",),
        {"duration": 1200.0, "seed": 0, "scale": 0.05},
    ),
    "adaptivity-lag": (
        ("vectorized", "event"),
        tuple(n for n in _SIM if n != "replicates") + _SHIFT + ("workload",),
        {"duration": 1200.0, "seed": 0, "scale": 0.05},
    ),
    "churn": (
        ("event", "vectorized"), _SIM,
        {"duration": 240.0, "seed": 0, "scale": 0.05},
    ),
    "staleness": (
        ("event", "vectorized"), _SIM,
        {"duration": 300.0, "seed": 0, "scale": 0.02},
    ),
    "simfig1": (
        ("event", "vectorized"), _SIM,
        {"duration": 120.0, "seed": 0, "scale": 0.02},
    ),
    "sweep": (
        ("vectorized",), _SIM + ("workload",),
        {"duration": 240.0, "seed": 0, "scale": 1.0},
    ),
    "sweep-optimal": (
        ("vectorized",), _SIM + ("workload",),
        {"duration": 240.0, "seed": 0, "scale": 1.0},
    ),
}


def test_list_text_is_unchanged(capsys):
    assert main(["--list"]) == 0
    assert capsys.readouterr().out == LISTING


def test_every_spec_keeps_its_engines_accepts_and_defaults():
    got = {
        spec.name: (
            spec.engines, frozenset(spec.accepts), spec.defaults.to_dict()
        )
        for spec in iter_specs()
    }
    want = {
        name: (engines, frozenset(accepts), defaults)
        for name, (engines, accepts, defaults) in SPECS.items()
    }
    assert list(got) == list(want)
    assert got == want


def test_every_param_field_has_exactly_one_flag():
    actions = _parser()._actions
    for param in fields(ExperimentParams):
        flag = "--" + param.name.replace("_", "-")
        owners = [a for a in actions if flag in a.option_strings]
        assert len(owners) == 1, flag
        assert owners[0].dest == param.name
        assert owners[0].help == param.metadata["help"]
        assert [a for a in actions if a.dest == param.name] == owners
    # --no-store is the one flag besides them that sets a parameter.
    (no_store,) = [a for a in actions if "--no-store" in a.option_strings]
    assert no_store.dest == "no_store"


def test_shift_at_and_window_reach_adaptivity_provenance(capsys):
    argv = [
        "adaptivity", "--engine", "vectorized", "--scale", "0.02",
        "--duration", "120", "--shift-at", "40", "--window", "20",
        "--no-store", "--format", "json",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    parameters = payload["provenance"]["parameters"]
    assert parameters["shift_at"] == 40.0
    assert parameters["window"] == 20.0
    assert "t=40" in payload["figure"]["name"]
    assert payload["figure"]["x_values"] == [
        f"{t}" for t in range(20, 121, 20)
    ]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["sim", "--engine", "vectorized", "--scale", "0.02",
          "--duration", "20", "--workload", "rank-swap"], "--workload"),
        (["adaptivity-lag", "--scale", "0.02", "--duration", "60",
          "--replicates", "3"], "--replicates"),
        (["fig1", "sim", "--window", "5"], "--window"),
        (["sim", "churn", "--shift-at", "5", "--window", "5"],
         "--shift-at, --window"),
    ],
)
def test_flag_no_requested_simulation_takes_is_an_error(capsys, argv, flags):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags}: not accepted by ")
    assert captured.err.count("\n") == 1


def test_flag_taken_by_one_requested_simulation_runs(capsys):
    # adaptivity-tracking takes --workload; sim runs without it.
    argv = [
        "sim", "adaptivity-tracking", "--engine", "vectorized",
        "--scale", "0.02", "--duration", "24", "--workload", "rank-swap",
        "--no-store", "--format", "csv",
    ]
    assert main(argv) == 0
    assert "selection [rank-swap]" in capsys.readouterr().out


def test_analytical_only_requests_ignore_every_flag(capsys):
    argv = ["fig1", "--window", "5", "--workload", "rank-swap",
            "--replicates", "3", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("queryFreq,")


@pytest.mark.parametrize("engine", ["event", "vectorized"])
def test_negative_seed_is_the_same_error_on_both_engines(capsys, engine):
    argv = ["sim", "--engine", engine, "--scale", "0.02", "--duration", "60",
            "--seed", "-1", "--no-store"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sim: seed must be >= 0, got -1\n"
