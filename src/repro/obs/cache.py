"""Counted ``lru_cache``: every cache in the repo reports through obs.

Hoisted out of ``fastsim.compare`` so any module (the calibration
facade, ``analysis.zipf``, future subsystems) can wrap a memoised
function and have its hits and misses show up as ``cache.<name>.hit`` /
``cache.<name>.miss`` counters plus a ``cache.<name>.size`` high-water
gauge in profiles — the same namespace the artifact store's disk tier
reports under (``cache.store.*``), so a profile shows the whole L1/L2
cache hierarchy in one place.
"""

from __future__ import annotations

import functools
from functools import lru_cache
from typing import Callable

from repro.obs.collector import count as _count
from repro.obs.collector import enabled as _enabled
from repro.obs.collector import gauge_max as _gauge_max

__all__ = ["counted_cache", "cache_stats"]


#: Every counted cache ever decorated, by name (latest wins on reuse of
#: a name, matching function redefinition semantics).
_CACHES: dict[str, Callable] = {}


def counted_cache(name: str, maxsize: int):
    """An ``lru_cache`` whose hits and misses feed ``obs`` counters.

    The wrapper emits ``cache.{name}.hit`` / ``cache.{name}.miss``
    counts (and a ``cache.{name}.size`` high-water gauge) while
    telemetry is enabled, keeps ``cache_info()`` / ``cache_clear()``
    passthroughs, and registers the cache under ``name`` for
    :func:`cache_stats`. The hit/miss classification reads
    ``cache_info`` deltas, so concurrent callers may miscount by a few
    under races — the stats are diagnostics, not invariants.
    """

    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled():
                return cached(*args, **kwargs)
            hits_before = cached.cache_info().hits
            result = cached(*args, **kwargs)
            info = cached.cache_info()
            outcome = "hit" if info.hits > hits_before else "miss"
            _count(f"cache.{name}.{outcome}")
            _gauge_max(f"cache.{name}.size", float(info.currsize))
            return result

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        wrapper.__wrapped__ = fn
        _CACHES[name] = wrapper
        return wrapper

    return decorate


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size statistics of every counted cache in the process,
    by name."""
    stats = {}
    for name, cache in sorted(_CACHES.items()):
        info = cache.cache_info()
        stats[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }
    return stats
