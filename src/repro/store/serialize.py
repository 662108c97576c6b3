"""Bit-exact JSON payloads: the one codec every artifact kind goes through.

A payload is a JSON object tagged with its kind's ``"type"`` (so a row
loaded under the wrong kind fails loudly instead of mis-parsing) plus
the value, in one of two shapes:

:class:`Fields`
    A dataclass (``PerOpCosts``, ``ChurnOpCosts``, ``FastSimReport``),
    one entry per field under its constructor name. Three fields have a
    hook: ``params`` goes through ``to_dict`` / ``from_dict``;
    ``messages_by_category`` is kept as ``[value, total]`` *pairs* in
    the report's own dict order — a sorted-key JSON object would reorder
    the categories and shift the last ulp of order-sensitive consumers
    like ``sum(messages_by_category.values())``; a ``*_series`` list of
    ``(time, value)`` tuples is kept as lists.
:class:`Boxed`
    A bare value under one entry (a lookup probe's float, a figure
    payload). A boxed dict's ``pairs`` entries are mappings kept as
    ``[key, value]`` pairs in their own order, as ``messages_by_category``
    is: a figure's series order is what it prints.

Round trips are exact: python floats survive JSON unchanged (``repr`` is
the shortest round-trip form) and ints stay ints. Classes are named by
dotted path and imported on first decode: ``repro.store`` must stay
importable without dragging the kernel (and numpy) in, and the reverse
import (``compare`` -> ``store``) must not cycle.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from typing import Any

__all__ = ["Fields", "Boxed", "CorruptPayload", "dumps", "loads"]


class CorruptPayload(Exception):
    """A row that is JSON but does not decode as its kind's value."""


@dataclasses.dataclass(frozen=True)
class Fields:
    """The codec of a dataclass value, named ``"module.Class"``."""

    cls: str

    def encode(self, value: Any) -> dict[str, Any]:
        return {
            field.name: _encode_field(field.name, getattr(value, field.name))
            for field in dataclasses.fields(value)
        }

    def decode(self, payload: dict[str, Any]) -> Any:
        module, _, name = self.cls.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        names = [field.name for field in dataclasses.fields(cls)]
        if set(payload) != {"type", *names}:
            raise CorruptPayload(
                f"fields {sorted(payload)} are not {self.cls}'s"
            )
        return cls(
            **{name: _decode_field(name, payload[name]) for name in names}
        )


@dataclasses.dataclass(frozen=True)
class Boxed:
    """The codec of a bare value stored under the entry ``name``; the
    value's ``pairs`` entries (a dict's) are kept as ordered pairs."""

    name: str
    pairs: tuple[str, ...] = ()

    def encode(self, value: Any) -> dict[str, Any]:
        if self.pairs:
            value = dict(value)
            for entry in self.pairs:
                value[entry] = [list(item) for item in value[entry].items()]
        return {self.name: value}

    def decode(self, payload: dict[str, Any]) -> Any:
        value = payload[self.name]
        if self.pairs:
            value = dict(value)
            for entry in self.pairs:
                value[entry] = dict(value[entry])
        return value


def _encode_field(name: str, value: Any) -> Any:
    if name == "params":
        return value.to_dict()
    if name == "messages_by_category":
        return [[category.value, total] for category, total in value.items()]
    if name.endswith("_series"):
        return [list(point) for point in value]
    return value


def _decode_field(name: str, value: Any) -> Any:
    if name == "params":
        from repro.analysis.parameters import ScenarioParameters

        return ScenarioParameters.from_dict(value)
    if name == "messages_by_category":
        from repro.sim.metrics import MessageCategory

        return {MessageCategory(category): total for category, total in value}
    if name.endswith("_series"):
        return [tuple(point) for point in value]
    return value


def dumps(kind: Any, value: Any) -> str:
    """Canonical payload text of a ``kind`` value (sorted keys; exact
    float round-trip). ``kind`` is a :class:`repro.store.schema.Kind`."""
    payload = {"type": kind.tag, **kind.codec.encode(value)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(kind: Any, text: str) -> Any:
    """The ``kind`` value ``text`` holds; :class:`CorruptPayload` if it
    does not decode as one, ``ValueError`` if it is another kind's."""
    try:
        payload = json.loads(text)
        found = payload.get("type")
    except (json.JSONDecodeError, AttributeError) as exc:
        raise CorruptPayload(f"{type(exc).__name__}: {exc}") from exc
    if found != kind.tag:
        raise ValueError(
            f"artifact payload has type {found!r}, expected {kind.tag!r}"
        )
    try:
        return kind.codec.decode(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptPayload(f"{type(exc).__name__}: {exc}") from exc
