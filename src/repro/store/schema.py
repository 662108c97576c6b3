"""Versioned SQLite schema for the artifact store.

The store follows the engine/schema/migration layering: this module owns
*what the database looks like* (an ordered migration list, applied by
:meth:`repro.store.db.Database.migrate` under ``PRAGMA user_version``),
while :mod:`repro.store.db` owns *how to talk to it* and
:mod:`repro.store.store` owns *what the rows mean*.

Migrations are append-only: never edit a shipped entry — add a new one.
``user_version`` records how many have been applied, so an old database
opened by a newer package runs exactly the migrations it is missing.

Artifact kinds and their schema revisions
-----------------------------------------

Every artifact row carries a ``kind``, and :data:`KINDS` is the one
place a kind is declared: its *schema revision*, which its content keys
bake in, its payload ``"type"`` tag and its codec
(:mod:`repro.store.serialize`). Bump a kind's rev whenever the payload
format or the semantics of its inputs change: old rows then simply stop
matching (their keys differ) and are recomputed, without any destructive
migration — the incremental invalidation discipline, applied to the
payload format itself.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass

from repro.store.serialize import Boxed, Fields

__all__ = [
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "Kind",
    "KINDS",
    "schema_version",
    "pending_migrations",
]


#: Ordered migration scripts; index i upgrades user_version i -> i + 1.
MIGRATIONS: tuple[str, ...] = (
    # v1: the artifact table. One row per content-addressed artifact:
    # the key is the sha-256 of the canonical input envelope (kind,
    # schema rev, package version, inputs), the payload is JSON.
    """
    CREATE TABLE artifacts (
        key        TEXT PRIMARY KEY,
        kind       TEXT NOT NULL,
        payload    TEXT NOT NULL,
        version    TEXT NOT NULL,
        created_at TEXT NOT NULL,
        size_bytes INTEGER NOT NULL
    );
    CREATE INDEX artifacts_by_kind ON artifacts (kind);
    """,
    # v2: the sha-256 of the payload text, checked on every load. Rows
    # written before it have none and load unchecked.
    """
    ALTER TABLE artifacts ADD COLUMN digest TEXT;
    """,
)

#: The schema version a fully-migrated database reports.
SCHEMA_VERSION = len(MIGRATIONS)


@dataclass(frozen=True)
class Kind:
    """How one artifact kind is keyed and stored."""

    #: Payload schema revision; part of every content key, so bumping it
    #: invalidates exactly this kind.
    rev: int
    #: The payload's ``"type"`` tag.
    tag: str
    #: How a value becomes the payload's other entries and back.
    codec: Fields | Boxed


KINDS: dict[str, Kind] = {
    # Calibrated base per-op costs (PerOpCosts off an event substrate).
    "costs": Kind(1, "costs", Fields("repro.fastsim.kernel.PerOpCosts")),
    # Calibrated availability-dependent per-op costs (ChurnOpCosts).
    "churn_costs": Kind(
        1, "churn_costs", Fields("repro.fastsim.churncosts.ChurnOpCosts")
    ),
    # Churned-substrate per-lookup probe (the member-rescale input).
    "lookup_probe": Kind(1, "lookup_probe", Boxed("value")),
    # One kernel run: a FastSimJob's FastSimReport (sweep cells, figure
    # strategy runs, replicate kernel runs — anything run_many executes).
    # rev 2: FastSimJob gained the state-precision field (dtype policy).
    "sweep_cell": Kind(
        2, "report", Fields("repro.fastsim.metrics.FastSimReport")
    ),
    # One seed's finished figure (export.figure_payload) from api.run:
    # every simulated run with a store, replicates=1 included.
    # rev 2: the series are kept as [name, values] pairs in figure order.
    "replicate": Kind(2, "replicate", Boxed("figure", pairs=("series",))),
}


def schema_version(conn: sqlite3.Connection) -> int:
    """The migration level of an open database (``PRAGMA user_version``)."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def pending_migrations(conn: sqlite3.Connection) -> list[tuple[int, str]]:
    """The ``(target_version, script)`` migrations this database lacks."""
    current = schema_version(conn)
    return [
        (index + 1, script)
        for index, script in enumerate(MIGRATIONS)
        if index >= current
    ]
