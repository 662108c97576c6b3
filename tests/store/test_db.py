"""Engine-layer tests: SQLite database, migrations, row operations."""

from __future__ import annotations

import sqlite3

import pytest

from repro.store import MIGRATIONS, SCHEMA_VERSION
from repro.store.db import Database, DigestMismatch
from repro.store.schema import pending_migrations, schema_version


class TestMigrations:
    def test_fresh_database_is_fully_migrated(self, tmp_path):
        with Database(tmp_path / "a.sqlite") as db:
            assert schema_version(db._conn) == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "a.sqlite"
        with Database(path) as db:
            db.put("k", "costs", "{}", "1.0")
        with Database(path) as db:
            assert schema_version(db._conn) == SCHEMA_VERSION
            assert db.get("k") == "{}"

    def test_memory_database_works(self):
        with Database(":memory:") as db:
            db.put("k", "costs", "{}", "1.0")
            assert db.get("k") == "{}"

    def test_newer_schema_than_package_is_refused(self, tmp_path):
        path = tmp_path / "a.sqlite"
        Database(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            Database(path)

    def test_pending_migrations_empty_after_migrate(self, tmp_path):
        db = Database(tmp_path / "a.sqlite")
        assert pending_migrations(db._conn) == []
        assert schema_version(db._conn) == len(MIGRATIONS)
        db.close()

    def test_a_version_1_database_gains_digests_and_keeps_its_rows(
        self, tmp_path
    ):
        path = tmp_path / "a.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(MIGRATIONS[0])
        conn.execute(
            "INSERT INTO artifacts VALUES ('k', 'costs', '{}', '1.0', 'now', 2)"
        )
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        with Database(path) as db:
            assert schema_version(db._conn) == SCHEMA_VERSION
            assert db.get("k") == "{}"  # no digest: returned unchecked
            db.put("k", "costs", "{}", "1.0")
            assert db.get("k") == "{}"

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "a.sqlite"
        with Database(path) as db:
            assert schema_version(db._conn) == SCHEMA_VERSION
        assert path.exists()


class TestRows:
    def test_put_get_has_delete_roundtrip(self, tmp_path):
        with Database(tmp_path / "a.sqlite") as db:
            assert db.get("k") is None
            db.put("k", "costs", '{"x": 1}', "1.0")
            assert db.get("k") == '{"x": 1}'

    def test_a_payload_changed_after_its_put_is_refused(self, tmp_path):
        with Database(tmp_path / "a.sqlite") as db:
            db.put("k", "costs", '{"x": 1}', "1.0")
            db._conn.execute("UPDATE artifacts SET payload = '{\"x\": 2}'")
            with pytest.raises(DigestMismatch, match="digest"):
                db.get("k")

    def test_put_replaces_existing_row(self, tmp_path):
        with Database(tmp_path / "a.sqlite") as db:
            db.put("k", "costs", "old", "1.0")
            db.put("k", "costs", "new", "1.0")
            assert db.get("k") == "new"
            assert db.count() == 1

    def test_count_and_keys_filter_by_kind(self, tmp_path):
        with Database(tmp_path / "a.sqlite") as db:
            db.put("a", "costs", "{}", "1.0")
            db.put("b", "costs", "{}", "1.0")
            db.put("c", "sweep_cell", "{}", "1.0")
            assert db.count() == 3
            assert db.count("costs") == 2
            assert db.count("sweep_cell") == 1

    def test_two_connections_share_one_file(self, tmp_path):
        path = tmp_path / "a.sqlite"
        with Database(path) as writer, Database(path) as reader:
            writer.put("k", "costs", "{}", "1.0")
            assert reader.get("k") == "{}"
