"""The artifact store + the process-wide active-store plumbing.

:class:`Store` wraps a :class:`repro.store.db.Database` with one generic
pair, ``load(kind, key)`` / ``save(kind, key, value)``, that runs a
value through its kind's codec (:data:`repro.store.schema.KINDS`).
Loads emit obs counters (``cache.store.hit`` / ``cache.store.miss``,
plus per-kind ``cache.store.<kind>.hit/.miss``) so resumption is
observable from any profile.

The *active store* is the process-wide default that
:func:`~repro.store.memo.stored` functions, ``run_many`` and
``api.run``'s replicates consult when no explicit handle is passed. It
resolves, in priority order:

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
from typing import Any, Iterator, Optional

from repro import obs
from repro.store import serialize
from repro.store.db import Database, DigestMismatch
from repro.store.schema import KINDS

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

    @property
    def path(self) -> str:
        return self.db.path

    def _record(self, kind: str, hit: bool) -> None:
        outcome = "hit" if hit else "miss"
        obs.count(f"cache.store.{outcome}")
        obs.count(f"cache.store.{kind}.{outcome}")

    def load(self, kind: str, key: str) -> Optional[Any]:
        """The ``kind`` value stored under ``key``, or ``None``; counts
        the hit or miss.

        A row whose payload no longer matches the sha-256 it was saved
        with (a doctored or damaged number), or that does not decode as
        ``kind`` (a write cut short, a missing field), is a miss, counted
        once more as ``cache.store.corrupt``: the caller recomputes and
        its save overwrites the row. A row written before digests were
        kept loads unchecked. A row tagged as another kind raises
        ``ValueError``.
        """
        value = None
        try:
            text = self.db.get(key)
            if text is not None:
                value = serialize.loads(KINDS[kind], text)
        except (DigestMismatch, serialize.CorruptPayload):
            obs.count("cache.store.corrupt")
        self._record(kind, hit=value is not None)
        return value

    def save(self, kind: str, key: str, value: Any) -> None:
        from repro import __version__

        text = serialize.dumps(KINDS[kind], value)
        self.db.put(key, kind, text, __version__)

    def load_report(self, key: str) -> Optional[Any]:
        """``load("sweep_cell", key)``, under the name the benchmark
        harness wraps to tell loaded reports from executed ones."""
        return self.load("sweep_cell", key)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Store(path={self.path!r})"


# -- active store -------------------------------------------------------

#: Sentinel distinguishing "nothing configured" from "explicitly None"
#: (the --no-store escape hatch must also mask the REPRO_STORE env).
_UNSET = object()
_active: Any = _UNSET


def active_store() -> Optional[Store]:
    """The store ``stored`` functions, ``run_many`` and replicates use."""
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


def close_env_store() -> None:
    """Close the ``REPRO_STORE`` handle, if one is open; the next
    :func:`active_store` opens a fresh one."""
    global _env_store
    if _env_store is not None:
        _env_store.close()
        _env_store = None


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
