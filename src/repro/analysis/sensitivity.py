"""keyTtl estimation-error sensitivity analysis (paper Section 5.1.1).

Peers must estimate ``cSUnstr``, ``cSIndx`` and ``cIndKey`` to compute
``keyTtl = 1/fMin``; the paper states that "an estimation error of +/-50% of
the ideal keyTtl decreases the savings only slightly". This module sweeps a
multiplicative error factor over the ideal TTL and reports the resulting
cost and savings so that claim can be checked quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import SelectionModel, SelectionOutcome
from repro.analysis.threshold import solve_threshold
from repro.errors import ParameterError

__all__ = ["KeyTtlSensitivity", "sweep_keyttl_error"]

#: Default error factors: -50% .. +50% of the ideal keyTtl in 25% steps.
DEFAULT_ERROR_FACTORS: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5)


@dataclass(frozen=True)
class KeyTtlSensitivity:
    """Outcome of the selection algorithm at one mis-estimated keyTtl."""

    error_factor: float
    key_ttl: float
    outcome: SelectionOutcome

    @property
    def cost_penalty(self) -> float:
        """Multiplicative cost increase relative to the ideal-TTL run.

        Filled in by :func:`sweep_keyttl_error`; 1.0 means no penalty.
        """
        return self._cost_penalty

    _cost_penalty: float = 1.0


def sweep_keyttl_error(
    params: ScenarioParameters,
    error_factors: Sequence[float] = DEFAULT_ERROR_FACTORS,
) -> list[KeyTtlSensitivity]:
    """Evaluate the selection model at ``keyTtl = factor * (1/fMin)``.

    Returns one entry per factor, each carrying the full
    :class:`SelectionOutcome` plus the cost penalty relative to the
    ``factor = 1.0`` run (which is always computed, even if absent from
    ``error_factors``, to anchor the penalty).
    """
    if not error_factors:
        raise ParameterError("error_factors must not be empty")
    for factor in error_factors:
        if factor <= 0:
            raise ParameterError(f"error factors must be > 0, got {factor}")

    ideal_ttl = solve_threshold(params).key_ttl
    ideal_cost = SelectionModel(params, key_ttl=ideal_ttl).total_cost()

    results: list[KeyTtlSensitivity] = []
    for factor in error_factors:
        ttl = ideal_ttl * factor
        outcome = SelectionModel(params, key_ttl=ttl).outcome()
        penalty = outcome.total_cost / ideal_cost if ideal_cost > 0 else 1.0
        results.append(
            KeyTtlSensitivity(
                error_factor=factor,
                key_ttl=ttl,
                outcome=outcome,
                _cost_penalty=penalty,
            )
        )
    return results
