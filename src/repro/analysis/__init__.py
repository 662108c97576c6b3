"""Closed-form analytical model of the paper (Sections 2-5).

This subpackage implements every numbered equation of the paper:

========  =====================================================
Equation  Implementation
========  =====================================================
(1)-(2)   :func:`repro.analysis.threshold.f_min`
(3)       :func:`repro.analysis.zipf.rank_probabilities`
(4)       :func:`repro.analysis.zipf.prob_queried`
(5)       :attr:`repro.analysis.threshold.IndexThreshold.p_indexed`
(6)       :func:`repro.analysis.costs.c_search_unstructured`
(7)       :func:`repro.analysis.costs.c_search_index`
(8)       :func:`repro.analysis.costs.c_routing_maintenance`
(9)       :func:`repro.analysis.costs.c_update`
(10)      :attr:`repro.analysis.costs.CostModel.index_key`
(11)      :func:`repro.analysis.strategies.cost_index_all`
(12)      :func:`repro.analysis.strategies.cost_no_index`
(13)      :func:`repro.analysis.strategies.cost_partial_ideal`
(14)-(15) :class:`repro.analysis.selection_model.SelectionModel`
(16)      :func:`repro.analysis.costs.c_search_index_with_replicas`
(17)      :meth:`repro.analysis.selection_model.SelectionModel.total_cost`
========  =====================================================
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.parameters": ("ScenarioParameters",),
    "repro.analysis.zipf": ("ZipfDistribution",),
    "repro.analysis.costs": (
        "CostModel",
        "c_routing_maintenance",
        "c_search_index",
        "c_search_index_with_replicas",
        "c_search_unstructured",
        "c_update",
    ),
    "repro.analysis.threshold": ("IndexThreshold", "f_min", "solve_threshold"),
    "repro.analysis.strategies": (
        "StrategyCosts",
        "cost_index_all",
        "cost_no_index",
        "cost_partial_ideal",
        "evaluate_strategies",
    ),
    "repro.analysis.selection_model": (
        "SelectionModel",
        "SelectionOutcome",
        "selection_outcome",
    ),
    "repro.analysis.optimal": (
        "OptimalPartialIndex",
        "optimal_key_ttl",
        "optimal_max_rank",
    ),
    "repro.analysis.sensitivity": ("KeyTtlSensitivity", "sweep_keyttl_error"),
    "repro.analysis.sweep": (
        "FrequencySweep",
        "PAPER_FREQUENCIES",
        "sweep_frequencies",
    ),
})
