"""Span stack and callable wrappers for the traced pass.

The benchmark times calls into each layer's public functions from the
outside: :class:`Patcher` swaps a callable for a wrapper that pushes a
span (name, layer, start, end, parent) on a :class:`SpanRecorder`, and
puts the original back afterwards. Nothing here imports ``repro`` and
nothing under ``src/`` is edited.

A span's *self time* is its duration minus the part its direct children
cover, so self times of all spans under one root sum to the root's
duration, and a layer's self time counts nested and re-entrant calls of
that layer once.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

__all__ = ["Span", "SpanRecorder", "Patcher"]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class SpanRecorder:
    """In-memory span list with an explicit open-span stack."""

    clock: Callable[[], float] = perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Non-numeric values seen at span boundaries (e.g. store file paths).
    notes: dict[str, list[Any]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def push(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def pop(self, index: int) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )
        self._stack.pop()
        span = self.spans[index]
        span.end = end
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def note(self, name: str, value: Any) -> None:
        self.notes.setdefault(name, []).append(value)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(self.spans[i].name == name for i in self._stack)

    # -- queries over finished spans -----------------------------------

    def named(self, *names: str) -> list[Span]:
        return [span for span in self.spans if span.name in names]

    def calls(self, *names: str) -> int:
        return len(self.named(*names))

    def inclusive(self, *names: str) -> float:
        """Total duration of the outermost spans among ``names``.

        A span nested (at any depth) inside another span of the same
        group is already inside that one's interval and is not added
        again - ``open_store`` calling ``Store(...)`` counts once.
        """
        total = 0.0
        for span in self.spans:
            if span.name in names and not self._has_ancestor(span, names):
                total += span.duration
        return total

    def _has_ancestor(self, span: Span, names: Iterable[str]) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def self_time(self, *names: str) -> float:
        return sum(span.self_time for span in self.named(*names))

    def layer_self_time(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.self_time
        return totals

    def to_rows(self) -> list[dict[str, Any]]:
        return [
            {
                "id": index,
                "name": span.name,
                "layer": span.layer,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
            }
            for index, span in enumerate(self.spans)
        ]


Before = Callable[[tuple, dict], Any]
After = Callable[[Any, tuple, dict, Any], None]


class Patcher:
    """Replace callables by span-recording wrappers; undo on exit.

    ``from module import func`` copies a reference at import time, so a
    function is replaced under every name, in every loaded module of
    ``package``, that is bound to the same object. Methods are
    replaced on their class, which every caller goes through.
    """

    def __init__(self, recorder: SpanRecorder, package: str) -> None:
        self.recorder = recorder
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class attribute).

        ``before(args, kwargs)`` runs ahead of the call and its return
        value is handed to ``after(token, args, kwargs, result)``, which
        runs only when the call returned normally.
        """
        original = owner.__dict__[attr]
        function = getattr(original, "__func__", original)
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            index = recorder.push(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.pop(index)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(wrapper)
        else:
            replacement = wrapper
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            prefix = self.package + "."
            bindings = [
                (module, key)
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == self.package or module_name.startswith(prefix))
                for key, value in list(module.__dict__.items())
                if value is original
            ]
        for holder, key in bindings:
            self._undo.append((holder, key, original))
            setattr(holder, key, replacement)

    def restore(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()
