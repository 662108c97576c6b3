"""Lazy package re-exports (PEP 562).

A package ``__init__`` names its public symbols and where they are
defined, and nothing is imported until a name is first read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.analysis.zipf": ("ZipfDistribution",),
    })

So ``import repro.fastsim.kernel`` loads the kernel and what it imports,
not every sibling module the package re-exports (the event substrate
among them). A resolved name is bound in the package, so only its first
read goes through ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, sources: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package``, whose public
    names are read from the modules ``sources`` maps to them."""
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__
