"""Dtype policies for the vectorized kernel's state arrays.

At 10^7–10^8 peers the simulator's ceiling is memory bandwidth, not
compute: ``FastSimState`` holds five O(n_keys) arrays plus three
O(num_peers) masks, and every round streams through them. Halving the
element width halves both the resident set and the bytes moved per
round.

Two policies are offered:

``wide`` (the default)
    float64 expiries, int64 counters — byte-for-byte the layout the
    kernel has always used. Seeded results under ``wide`` are pinned
    bit-identical to the captures in ``tests/fastsim/data``.

``slim`` (opt-in, for 10^7+ runs)
    float32 expiries, uint32 counters: integer expiries stay exact below
    float32's 2^24 exact-integer range and per-key event tallies below
    2^32, and :func:`check_slim_range` refuses a run that could reach
    either. The only behavioural drift is sub-ULP tie-breaking on
    fractional TTLs, which the 5% cross-engine agreement gates absorb
    (re-verified by ``tests/properties/test_property_precision.py``).

Peer masks stay ``bool`` (numpy's 1-byte bool is already minimal) and
workload rank/key vectors stay int64: they index arrays directly and
narrowing them would force casts on every fancy-indexing operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "StatePrecision",
    "INDEX_DTYPE",
    "PROB_DTYPE",
    "WIDE",
    "SLIM",
    "PRECISIONS",
    "PRECISION_NAMES",
    "check_slim_range",
    "resolve_precision",
]

# ---------------------------------------------------------------------
# Precision-independent dtypes. This module is the only fastsim file
# allowed to name concrete dtypes (invariant RL103); everything outside
# the StatePrecision policies routes through these two constants.
# ---------------------------------------------------------------------

#: Dtype of the draw pipeline's rank/key index vectors (and any other
#: array used for fancy indexing). Deliberately *not* part of the
#: wide/slim policy: narrowing an index dtype forces a cast on every
#: fancy-indexing operation, which costs more than the memory saves.
INDEX_DTYPE = np.dtype(np.int64)

#: Dtype of probability/draw intermediates (uniform draws, resolution
#: probabilities, turnover thresholds). Stays float64 under every
#: policy: the Zipf tables and RNG draw path are float64, and slimming
#: the comparisons against them would shift seeded tie-breaks.
PROB_DTYPE = np.dtype(np.float64)


@dataclass(frozen=True)
class StatePrecision:
    """One dtype policy: how wide the kernel's state arrays are.

    ``float_dtype`` backs expiry clocks (``expires_at``); ``counter_dtype``
    backs the per-key event tallies and version counters. Dtypes are kept
    as strings so the policy is trivially picklable and canonical-JSON
    reducible (it rides along inside ``FastSimJob`` artifact keys).
    """

    name: str
    float_dtype: str
    counter_dtype: str

    @property
    def np_float(self) -> np.dtype:
        return np.dtype(self.float_dtype)

    @property
    def np_counter(self) -> np.dtype:
        return np.dtype(self.counter_dtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


WIDE = StatePrecision(name="wide", float_dtype="float64", counter_dtype="int64")
SLIM = StatePrecision(name="slim", float_dtype="float32", counter_dtype="uint32")

PRECISIONS: dict[str, StatePrecision] = {p.name: p for p in (WIDE, SLIM)}
PRECISION_NAMES: tuple[str, ...] = tuple(PRECISIONS)

#: Past these, ``slim``'s float32 expiries round and uint32 tallies wrap.
SLIM_EXACT_ROUNDS, SLIM_EXACT_TALLIES = 2**24, 2**32


def check_slim_range(
    precision: StatePrecision, last_round: float, key_ttl: float, queries: int
) -> None:
    """Refuse a ``slim`` run whose latest expiry (``last_round + key_ttl``,
    an infinite TTL is exact) or tallies (at most ``queries``) reach them."""
    if precision != SLIM:
        return
    expiry = last_round + (key_ttl if math.isfinite(key_ttl) else 0.0)
    if expiry >= SLIM_EXACT_ROUNDS:
        raise ParameterError(
            f"slim expiries are exact below round {SLIM_EXACT_ROUNDS}; this "
            f"run reaches {expiry:g} (key_ttl included): use wide"
        )
    if queries >= SLIM_EXACT_TALLIES:
        raise ParameterError(
            f"slim tallies are exact below {SLIM_EXACT_TALLIES} queries; "
            f"this run reaches {queries}: use wide"
        )


def resolve_precision(
    precision: str | StatePrecision | None,
) -> StatePrecision:
    """Normalise a precision spec (name, policy, or None) to a policy.

    ``None`` means "the default" (``wide``), so callers can thread an
    optional parameter straight through without special-casing.
    """
    if precision is None:
        return WIDE
    if isinstance(precision, StatePrecision):
        return precision
    resolved = PRECISIONS.get(precision)
    if resolved is None:
        raise ParameterError(
            f"unknown precision {precision!r}; "
            f"expected one of {sorted(PRECISIONS)}"
        )
    return resolved
