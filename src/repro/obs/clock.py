"""The repo's sanctioned wall-clock sources.

Seeded simulations are pinned bit-identical, so wall-clock reads are
*observational by definition* — they may time things and stamp
provenance, never influence a result or an artifact key. Lint rule
RL101 enforces that by banning direct ``time``/``datetime`` clock reads
everywhere in ``src/repro`` outside this package: one grep of
``repro.obs`` audits every timing source in the library.

``perf_counter`` is re-exported unwrapped (it is the exact
``time.perf_counter`` object), so hot loops that alias it pay zero
extra call overhead.
"""

from __future__ import annotations

import datetime as _datetime

# Unwrapped re-export: callers get time.perf_counter itself.
from time import perf_counter as perf_counter  # noqa: F401

__all__ = ["perf_counter", "utc_now_iso"]


def utc_now_iso() -> str:
    """The current UTC time as an ISO-8601 string to the second
    (provenance stamps)."""
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
