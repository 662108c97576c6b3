"""Closed-form analytical model of the paper (Sections 2-5).

This subpackage implements every numbered equation of the paper:

========  =====================================================
Equation  Implementation
========  =====================================================
(1)-(2)   :func:`repro.analysis.threshold.f_min`
(3)       :class:`repro.analysis.zipf.ZipfDistribution`
(4)       :meth:`repro.analysis.zipf.ZipfDistribution.prob_queried`
(5)       :meth:`repro.analysis.zipf.ZipfDistribution.head_mass`
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

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.analysis.costs import (
    CostModel,
    c_routing_maintenance,
    c_search_index,
    c_search_index_with_replicas,
    c_search_unstructured,
    c_update,
)
from repro.analysis.threshold import IndexThreshold, f_min, solve_threshold
from repro.analysis.strategies import (
    StrategyCosts,
    cost_index_all,
    cost_no_index,
    cost_partial_ideal,
    evaluate_strategies,
)
from repro.analysis.selection_model import (
    SelectionModel,
    SelectionOutcome,
    selection_outcome,
)
from repro.analysis.optimal import (
    OptimalPartialIndex,
    optimal_key_ttl,
    optimal_max_rank,
)
from repro.analysis.sensitivity import KeyTtlSensitivity, sweep_keyttl_error
from repro.analysis.sweep import FrequencySweep, PAPER_FREQUENCIES, sweep_frequencies

__all__ = [
    "ScenarioParameters",
    "ZipfDistribution",
    "CostModel",
    "c_routing_maintenance",
    "c_search_index",
    "c_search_index_with_replicas",
    "c_search_unstructured",
    "c_update",
    "IndexThreshold",
    "f_min",
    "solve_threshold",
    "StrategyCosts",
    "cost_index_all",
    "cost_no_index",
    "cost_partial_ideal",
    "evaluate_strategies",
    "SelectionModel",
    "SelectionOutcome",
    "selection_outcome",
    "OptimalPartialIndex",
    "optimal_key_ttl",
    "optimal_max_rank",
    "KeyTtlSensitivity",
    "sweep_keyttl_error",
    "FrequencySweep",
    "PAPER_FREQUENCIES",
    "sweep_frequencies",
]
