"""SQLite engine for the artifact store.

This is the *engine* layer of the engine/schema/store split: it knows how
to open, migrate, lock, and query a SQLite database of artifact rows,
and nothing about what the payloads mean. Schema DDL and the artifact
kinds live in :mod:`repro.store.schema`; loading and saving a kind's
value, in :mod:`repro.store.store`.

Every row carries the sha-256 of its payload text, written by
:meth:`Database.put` and checked by :meth:`Database.get`, so a payload
that changed after it was written is refused rather than served.

Zero dependencies beyond the standard library. Safe for concurrent use
from multiple processes (WAL journal + busy timeout) and from multiple
threads of one process (a single connection behind a lock — SQLite
serializes writes anyway, so one connection is the simple correct
choice).
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from typing import Optional

from repro.obs.clock import utc_now_iso
from repro.store import schema as _schema

__all__ = ["Database", "DigestMismatch"]

_BUSY_TIMEOUT_MS = 10_000


def _utcnow() -> str:
    return utc_now_iso()


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class DigestMismatch(Exception):
    """A row whose payload no longer matches the digest it was put with."""


class Database:
    """A migrated artifact database: ``get``/``put`` over one SQLite file.

    ``path`` may be ``":memory:"`` for an ephemeral in-process store
    (used by tests and the ``--no-store`` fallback paths).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path,
            timeout=_BUSY_TIMEOUT_MS / 1000,
            check_same_thread=False,
            isolation_level=None,  # autocommit; explicit transactions below
        )
        self._conn.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        if self.path != ":memory:":
            # WAL lets a resumed sweep read while another process writes.
            self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        self.migrate()

    # -- schema ---------------------------------------------------------

    def migrate(self) -> int:
        """Apply any pending migrations; return the resulting version."""
        with self._lock:
            current = _schema.schema_version(self._conn)
            if current > _schema.SCHEMA_VERSION:
                raise RuntimeError(
                    f"store at {self.path!r} has schema version {current}, "
                    f"newer than this package understands "
                    f"({_schema.SCHEMA_VERSION}); upgrade repro"
                )
            for target, script in _schema.pending_migrations(self._conn):
                with self._conn:  # one transaction per migration
                    self._conn.executescript("BEGIN;" + script)
                    self._conn.execute(f"PRAGMA user_version = {target}")
            return _schema.schema_version(self._conn)

    # -- rows -----------------------------------------------------------

    def get(self, key: str) -> Optional[str]:
        """The JSON payload stored under ``key``, or ``None``;
        :class:`DigestMismatch` if it no longer matches its digest. A row
        written before schema v2 has no digest and is returned as is."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, digest FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        payload, digest = row
        if digest is not None and digest != _digest(payload):
            raise DigestMismatch(f"row {key} does not match its digest")
        return payload

    def put(self, key: str, kind: str, payload: str, version: str) -> None:
        """Store ``payload`` and its digest under ``key``, replacing any
        existing row.

        Content-addressed keys make replacement idempotent: two
        processes racing to store the same key write the same bytes.
        """
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts "
                "(key, kind, payload, version, created_at, size_bytes, digest) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (key, kind, payload, version, _utcnow(), len(payload),
                 _digest(payload)),
            )

    def count(self, kind: Optional[str] = None) -> int:
        query = "SELECT COUNT(*) FROM artifacts"
        args: tuple = ()
        if kind is not None:
            query += " WHERE kind = ?"
            args = (kind,)
        with self._lock:
            return int(self._conn.execute(query, args).fetchone()[0])

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(path={self.path!r})"
