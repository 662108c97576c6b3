"""repro — a query-adaptive partial distributed hash table (PDHT).

Reproduction of Klemm, Datta, Aberer, "A Query-Adaptive Partial
Distributed Hash Table for Peer-to-Peer Systems" (EDBT 2004 workshops).

Quick start — the Experiment API regenerates any table or figure of the
paper as a structured, provenance-stamped result::

    from repro import run_experiment
    from repro.experiments import experiment_names

    print(experiment_names())       # table1, fig1..fig4, ..., sweep
    result = run_experiment("sim", engine="vectorized", duration=120.0)
    print(result.render())          # the figure as ASCII
    result.save("out/", fmt="json") # series + scenario/engine/seed/version

Or from the command line (``--list`` shows every experiment with its
engine capabilities)::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner sim --engine vectorized
    python -m repro.experiments.runner sweep --format json --output out/

Driving the system directly::

    from repro import ScenarioParameters, sweep_frequencies

    params = ScenarioParameters.paper_scenario()
    sweep = sweep_frequencies(params)
    print(sweep.partial_costs)          # Fig. 1's 'partial' series

    from repro import PdhtNetwork, PdhtConfig
    from repro.experiments import simulation_scenario

    params = simulation_scenario()
    net = PdhtNetwork(params, PdhtConfig.from_scenario(params), seed=7)
    net.publish("title=weather iraklion", "article-00042")
    peer = net.random_online_peer()
    outcome = net.query(peer, "title=weather iraklion")

Subpackages:

* :mod:`repro.analysis` — the paper's closed-form model (Eq. 1-17);
* :mod:`repro.sim` — discrete-event engine, rng streams, metrics;
* :mod:`repro.net` — peers, topologies, churn;
* :mod:`repro.unstructured` — Gnutella-like overlay, k-walker random walks;
* :mod:`repro.dht` — the P-Grid DHT + routing maintenance;
* :mod:`repro.replication` — replica subnetworks;
* :mod:`repro.workloads` — the query stream, defined once: composable
  workload models (stationary Zipf, rank swaps, gradual drift, flash
  crowds, diurnal cycles, trace replay), each realised for both engines
  by ``model.build(zipf, rng)``;
* :mod:`repro.pdht` — the query-adaptive partial DHT itself;
* :mod:`repro.fastsim` — vectorized batch kernel for 10^5-10^6-peer runs;
* :mod:`repro.experiments` — the Experiment API (typed specs,
  capability-gated engines, structured results) and the figure/table
  generators behind it.

Simulated experiments accept ``engine="event" | "vectorized"``; the fast
path replays the same Section 5 semantics as whole-round numpy batches::

    from repro import run_fastsim
    from repro.experiments import fastsim_scenario

    report = run_fastsim(fastsim_scenario(), duration=600.0)  # 100k peers
    print(report.hit_rate, report.messages_per_second)
"""

from repro._exports import lazy_exports

__version__ = "1.10.0"

# Names resolve on first use: ``import repro`` loads no subpackage.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis": (
        "ScenarioParameters",
        "ZipfDistribution",
        "CostModel",
        "SelectionModel",
        "evaluate_strategies",
        "solve_threshold",
        "sweep_frequencies",
    ),
    "repro.pdht": ("PdhtConfig", "PdhtNetwork", "QueryOutcome", "TtlKeyStore"),
    "repro.fastsim": (
        "FastSimKernel",
        "FastSimReport",
        "PerOpCosts",
        "calibrate_costs",
        "compare_engines",
        "run_fastsim",
    ),
    "repro.experiments": ("ExperimentResult", "ExperimentSpec", "run_experiment"),
    "repro.workloads": ("WorkloadModel", "model_from_name"),
    "repro.errors": ("ReproError",),
})
__all__.append("__version__")
