"""Typed artifact store + the process-wide active-store plumbing.

:class:`Store` wraps a :class:`repro.store.db.Database` with per-kind
``load_*`` / ``save_*`` helpers that compose the content key, serialize
the payload, and emit obs counters (``cache.store.hit`` /
``cache.store.miss``, plus per-kind ``cache.store.<kind>.hit/.miss``) so
resumption is observable from any profile.

The *active store* is the process-wide default consulted by
``compare.costs_for`` / ``calibrate_churn_costs`` / ``run_many`` when no
explicit handle is passed. It resolves, in priority order:

1. an explicit :func:`using_store` scope
   (the runner's ``--store PATH`` / ``--no-store`` land here);
2. the ``REPRO_STORE`` environment variable (a path; also how
   ``run_many`` worker processes inherit the parent's store);
3. nothing — all store lookups are skipped, exactly the pre-store
   behavior.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator, Mapping, Optional

from repro import obs
from repro.store.db import Database
from repro.store.keys import content_key
from repro.store import serialize

__all__ = [
    "Store",
    "active_store",
    "using_store",
    "open_store",
    "STORE_ENV",
]

STORE_ENV = "REPRO_STORE"


class Store:
    """Content-addressed artifact store over one SQLite database."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.db = Database(path)
        self.stats: dict[str, dict[str, int]] = {}

    @property
    def path(self) -> str:
        return self.db.path

    # -- generic keyed access ------------------------------------------

    def key_for(self, kind: str, inputs: Mapping[str, Any]) -> str:
        return content_key(kind, inputs)

    def _record(self, kind: str, hit: bool) -> None:
        entry = self.stats.setdefault(kind, {"hits": 0, "misses": 0})
        entry["hits" if hit else "misses"] += 1
        outcome = "hit" if hit else "miss"
        obs.count(f"cache.store.{outcome}")
        obs.count(f"cache.store.{kind}.{outcome}")

    def load(self, kind: str, key: str) -> Optional[dict[str, Any]]:
        """The payload stored under ``key``, counting hit/miss for ``kind``."""
        text = self.db.get(key)
        self._record(kind, hit=text is not None)
        if text is None:
            return None
        return serialize.loads(text, _PAYLOAD_TYPES[kind])

    def save(self, kind: str, key: str, payload: dict[str, Any]) -> None:
        from repro import __version__

        self.db.put(key, kind, serialize.dumps(payload), __version__)

    # -- calibrated costs ----------------------------------------------

    def load_costs(self, inputs: Mapping[str, Any]) -> Optional[Any]:
        payload = self.load("costs", self.key_for("costs", inputs))
        return None if payload is None else serialize.costs_from_payload(payload)

    def save_costs(self, inputs: Mapping[str, Any], costs: Any) -> None:
        key = self.key_for("costs", inputs)
        self.save("costs", key, serialize.costs_to_payload(costs))

    def load_churn_costs(self, inputs: Mapping[str, Any]) -> Optional[Any]:
        payload = self.load("churn_costs", self.key_for("churn_costs", inputs))
        if payload is None:
            return None
        return serialize.churn_costs_from_payload(payload)

    def save_churn_costs(self, inputs: Mapping[str, Any], costs: Any) -> None:
        key = self.key_for("churn_costs", inputs)
        self.save("churn_costs", key, serialize.churn_costs_to_payload(costs))

    def load_probe(self, inputs: Mapping[str, Any]) -> Optional[float]:
        payload = self.load("lookup_probe", self.key_for("lookup_probe", inputs))
        return None if payload is None else serialize.probe_from_payload(payload)

    def save_probe(self, inputs: Mapping[str, Any], value: float) -> None:
        key = self.key_for("lookup_probe", inputs)
        self.save("lookup_probe", key, serialize.probe_to_payload(value))

    # -- kernel reports (sweep cells / figure runs) --------------------

    def load_report(self, key: str) -> Optional[Any]:
        payload = self.load("sweep_cell", key)
        return None if payload is None else serialize.report_from_payload(payload)

    def save_report(self, key: str, report: Any) -> None:
        self.save("sweep_cell", key, serialize.report_to_payload(report))

    # -- replicate figure payloads -------------------------------------

    def load_replicate(self, inputs: Mapping[str, Any]) -> Optional[dict[str, Any]]:
        payload = self.load("replicate", self.key_for("replicate", inputs))
        if payload is None:
            return None
        return payload["figure"]

    def save_replicate(
        self, inputs: Mapping[str, Any], figure_payload: dict[str, Any]
    ) -> None:
        key = self.key_for("replicate", inputs)
        self.save("replicate", key, {"type": "replicate", "figure": figure_payload})

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Store(path={self.path!r})"


#: Payload "type" tag expected for each artifact kind.
_PAYLOAD_TYPES = {
    "costs": "costs",
    "churn_costs": "churn_costs",
    "lookup_probe": "lookup_probe",
    "sweep_cell": "report",
    "replicate": "replicate",
}


# -- active store -------------------------------------------------------

#: Sentinel distinguishing "nothing configured" from "explicitly None"
#: (the --no-store escape hatch must also mask the REPRO_STORE env).
_UNSET = object()
_active: Any = _UNSET


def active_store() -> Optional[Store]:
    """The store default-consulted by calibrations and ``run_many``."""
    if _active is not _UNSET:
        return _active
    path = os.environ.get(STORE_ENV, "").strip()
    if not path:
        return None
    global _env_store
    if _env_store is None or _env_store.path != path:
        _env_store = Store(path)
    return _env_store


#: Lazily-opened store for the REPRO_STORE path (one handle per process).
_env_store: Optional[Store] = None


@contextlib.contextmanager
def using_store(store: Optional[Store]) -> Iterator[Optional[Store]]:
    """Set (or, with ``None``, disable) the process-wide default store
    for the ``with`` block; restores the prior state on exit. ``None`` is
    an explicit *off*: it wins over ``REPRO_STORE``."""
    global _active
    previous = _active
    _active = store
    try:
        yield store
    finally:
        _active = previous


def open_store(path: str | os.PathLike[str]) -> Store:
    """Open (creating/migrating as needed) the store at ``path``."""
    return Store(path)
