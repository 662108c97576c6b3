"""Content-addressed keys for artifacts.

A key is the sha-256 of a canonical-JSON *envelope*::

    {"kind": ..., "schema_rev": ..., "version": ..., "inputs": {...}}

where ``schema_rev`` is the artifact kind's payload revision
(:data:`repro.store.schema.KINDS`), ``version`` is
``repro.__version__``, and ``inputs`` is the caller's full input record
(frozen workload model, scenario parameters, seed, per-op costs, …)
run through :func:`canonical`.

Change *any* component — model, params, seed, package version, schema
rev — and the key changes, so the artifact is recomputed; change none
and the stored row is reused. That is the entire invalidation rule.

:func:`canonical` maps the repo's value types onto plain JSON:

- frozen dataclasses -> ``{"__dataclass__": qualified name, fields...}``
- numpy scalars -> python scalars, ndarrays -> nested lists
- ``np.random.Generator`` -> its ``bit_generator.state`` dict
- enums -> their value
- ``BatchWorkload`` streams -> qualified class name + canonical state
- dict keys are sorted; tuples/sets become lists (sets sorted)

Floats serialize via ``repr`` round-trip (exact in python), so keys are
bit-stable across processes and platforms for identical inputs; ``±inf``
becomes ``{"__float__": "inf" | "-inf"}`` and NaN is rejected.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from typing import Any, Mapping, Optional

from repro.store.schema import KINDS

__all__ = ["canonical", "canonical_json", "content_key"]


def _qualname(obj: object) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-representable canonical form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/inf are not JSON. An infinity is a legitimate input ("this
        # schedule has no further boundary", ``hot_for=inf``) and gets a
        # tagged form; NaN equals nothing, itself included, so it fails
        # loudly rather than store an unmatchable key.
        if value != value:
            raise ValueError(f"non-finite float in store key inputs: {value!r}")
        if value in (float("inf"), float("-inf")):
            return {"__float__": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    # Objects may declare a compact canonical identity (e.g. a Zipf
    # distribution is fully determined by (n_keys, alpha) — hashing its
    # precomputed probability arrays would be pure waste).
    store_key = getattr(value, "__store_key__", None)
    if store_key is not None and not isinstance(value, type):
        return {"__object__": _qualname(value), "state": canonical(store_key())}
    # numpy is read from sys.modules, not imported: with it unloaded no
    # numpy value exists, and keying a run's figure (the lookup a warm run
    # is) must not load it; nor keying a job, numpy.random.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        return canonical(value.item())
    if np is not None and isinstance(value, np.ndarray):
        return [canonical(item) for item in value.tolist()]
    random = sys.modules.get("numpy.random")
    if random is not None and isinstance(value, random.Generator):
        return {
            "__rng__": _qualname(value.bit_generator),
            "state": canonical(value.bit_generator.state),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        record: dict[str, Any] = {"__dataclass__": _qualname(value)}
        for field in dataclasses.fields(value):
            record[field.name] = canonical(getattr(value, field.name))
        return record
    if isinstance(value, Mapping):
        items = {str(key): canonical(item) for key, item in value.items()}
        return dict(sorted(items.items()))
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    # Query streams (BatchWorkload subclasses) and similar stateful
    # objects: identity is the class plus its instance state.
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__object__": _qualname(value),
            "state": {
                name: canonical(item) for name, item in sorted(state.items())
            },
        }
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for a store key"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, no spaces)."""
    return json.dumps(
        canonical(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def content_key(
    kind: str,
    inputs: Mapping[str, Any],
    *,
    version: Optional[str] = None,
    schema_rev: Optional[int] = None,
) -> str:
    """The sha-256 content key for an artifact of ``kind`` with ``inputs``.

    ``version`` defaults to ``repro.__version__``; ``schema_rev`` to the
    kind's rev in :data:`KINDS`. Both are overridable for tests that
    prove key sensitivity.
    """
    if schema_rev is None:
        try:
            schema_rev = KINDS[kind].rev
        except KeyError:
            raise ValueError(f"unknown artifact kind: {kind!r}") from None
    if version is None:
        from repro import __version__ as version  # lazy: avoid cycle

    envelope = {
        "kind": kind,
        "schema_rev": schema_rev,
        "version": version,
        "inputs": inputs,
    }
    digest = hashlib.sha256(canonical_json(envelope).encode("utf-8"))
    return digest.hexdigest()
