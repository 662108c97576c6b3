"""``stored(kind)``: read a function's result through the active store.

Nothing is imported until a call: ``repro.fastsim.compare`` decorates
its calibration probes when it loads, and importing it must not pull in
SQLite or the store.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

__all__ = ["stored"]


def stored(kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Memoise the decorated function in the active store under ``kind``.

    The call's bound arguments, defaults applied, are the content-key
    inputs of its result, so the parameter names *are* the key record.
    A call whose key is on disk returns the stored value without running
    the body (whatever the body opens — a ``calibrate.*`` span — stays
    unopened); a miss runs the body and saves its result. With no active
    store the function just runs.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def through(*args: Any, **kwargs: Any) -> Any:
            from repro.store.keys import content_key
            from repro.store.store import active_store

            store = active_store()
            if store is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = content_key(kind, bound.arguments)
            value = store.load(kind, key)
            if value is None:
                value = fn(*args, **kwargs)
                store.save(kind, key, value)
            return value

        return through

    return decorate
