"""Regression guard on the public API surface.

Every name each package advertises in ``__all__`` must actually resolve,
and the top-level :mod:`repro` namespace must keep exporting the objects
the README's quickstart uses.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.sim",
    "repro.net",
    "repro.unstructured",
    "repro.dht",
    "repro.replication",
    "repro.workloads",
    "repro.pdht",
    "repro.fastsim",
    "repro.obs",
    "repro.experiments",
    "repro.experiments.api",
    "repro.experiments.sweeps",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} is advertised but missing"


def test_quickstart_names_present():
    import repro

    for name in (
        "ScenarioParameters",
        "sweep_frequencies",
        "PdhtNetwork",
        "PdhtConfig",
        "ZipfDistribution",
        "SelectionModel",
        "solve_threshold",
        "run_fastsim",
        "FastSimKernel",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_version_is_set():
    import repro

    assert repro.__version__


def test_experiment_api_exports():
    # The Experiment API surface the README quick-start uses.
    import repro
    from repro.experiments import api

    for name in (
        "ExperimentSpec",
        "ExperimentParams",
        "ExperimentResult",
        "experiment",
        "run",
        "get_spec",
        "experiment_names",
        "REGISTRY",
    ):
        assert name in api.__all__
        assert getattr(api, name) is not None
    for name in ("run_experiment", "ExperimentResult", "ExperimentSpec"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_registry_covers_legacy_experiments_dict():
    # Every experiment the old string-keyed dict exposed must be a
    # registered spec (the shim iterates the registry, so this also pins
    # the EXPERIMENTS surface).
    from repro.experiments.api import REGISTRY, experiment_names

    legacy = {
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "keyttl",
        "optimal",
        "sim",
        "adaptivity",
        "churn",
        "staleness",
        "simfig1",
    }
    names = set(experiment_names())
    assert legacy <= names
    assert "sweep" in names
    assert names == set(REGISTRY)


def test_error_hierarchy_rooted():
    from repro import errors

    for name in (
        "ParameterError",
        "ConvergenceError",
        "SimulationError",
        "TopologyError",
        "RoutingError",
        "KeyspaceError",
        "OfflinePeerError",
    ):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError), name
