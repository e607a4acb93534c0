"""Schema lifecycle of the metrics store: creation, migration, versioning."""

import sqlite3

import pytest

from repro.obs.store import _SCHEMA_MIGRATIONS, SCHEMA_VERSION, MetricsStore


def table_names(store: MetricsStore) -> set:
    _, rows = store.query("SELECT name FROM sqlite_master WHERE type = 'table'")
    return {row[0] for row in rows}


def test_fresh_store_is_at_current_version():
    with MetricsStore() as store:
        assert store.schema_version == SCHEMA_VERSION
        assert {
            "schema_migrations",
            "ingests",
            "results",
            "monthly",
            "bench_reports",
            "bench_metrics",
            "figures",
            "figure_cells",
            "serve_events",
            "drift",
        } <= table_names(store)


def test_every_migration_step_is_recorded():
    with MetricsStore() as store:
        _, rows = store.query("SELECT version, description FROM schema_migrations ORDER BY version")
    assert [row[0] for row in rows] == sorted(_SCHEMA_MIGRATIONS)
    assert [row[1] for row in rows] == [
        _SCHEMA_MIGRATIONS[version][0] for version in sorted(_SCHEMA_MIGRATIONS)
    ]


def make_v1_store(path) -> None:
    """Write a version-1 store by hand, as an older build would have."""
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE schema_migrations (version INTEGER PRIMARY KEY, description TEXT NOT NULL)"
    )
    description, statements = _SCHEMA_MIGRATIONS[1]
    for statement in statements:
        conn.execute(statement)
    conn.execute(
        "INSERT INTO schema_migrations (version, description) VALUES (?, ?)", (1, description)
    )
    conn.execute(
        "INSERT INTO ingests (kind, source, label) VALUES ('run', 'old.json', 'legacy')"
    )
    conn.commit()
    conn.close()


def test_v1_store_migrates_in_place_and_keeps_rows(tmp_path):
    path = tmp_path / "old.sqlite"
    make_v1_store(path)
    with MetricsStore(path) as store:
        assert store.schema_version == SCHEMA_VERSION
        assert {"serve_events", "drift"} <= table_names(store)
        # Pre-migration rows survive untouched.
        _, rows = store.query("SELECT kind, source, label FROM ingests")
        assert rows == [("run", "old.json", "legacy")]
        # The migration steps were recorded, not just applied.
        _, versions = store.query("SELECT version FROM schema_migrations ORDER BY version")
        assert [row[0] for row in versions] == sorted(_SCHEMA_MIGRATIONS)


def test_reopening_a_migrated_store_is_idempotent(tmp_path):
    path = tmp_path / "store.sqlite"
    MetricsStore(path).close()
    with MetricsStore(path) as store:
        _, rows = store.query("SELECT COUNT(*) FROM schema_migrations")
    assert rows[0][0] == len(_SCHEMA_MIGRATIONS)


def test_store_from_a_newer_build_is_rejected(tmp_path):
    path = tmp_path / "future.sqlite"
    store = MetricsStore(path)
    store.execute(
        "INSERT INTO schema_migrations (version, description) VALUES (?, 'from the future')",
        (SCHEMA_VERSION + 1,),
    )
    store.close()
    with pytest.raises(ValueError, match="newer|version"):
        MetricsStore(path)


def test_dump_is_identical_for_identical_operations():
    def build() -> str:
        with MetricsStore() as store:
            ingest_id = store.begin_ingest("bench", "BENCH_x.json", "baseline")
            store.execute(
                "INSERT INTO bench_reports (ingest_id, benchmark, mode, source) "
                "VALUES (?, 'x', 'quick', 'BENCH_x.json')",
                (ingest_id,),
            )
            store.commit()
            return store.dump()

    assert build() == build()


def make_v3_store(path) -> None:
    """Write a version-3 store by hand, as the pre-sharding build would have."""
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE schema_migrations (version INTEGER PRIMARY KEY, description TEXT NOT NULL)"
    )
    for version in (1, 2, 3):
        description, statements = _SCHEMA_MIGRATIONS[version]
        for statement in statements:
            conn.execute(statement)
        conn.execute(
            "INSERT INTO schema_migrations (version, description) VALUES (?, ?)",
            (version, description),
        )
    conn.execute("INSERT INTO ingests (kind, source, label) VALUES ('serve-events', 'logs', '')")
    conn.execute(
        "INSERT INTO serve_events (ingest_id, tenant, seq, latency_ms) VALUES (1, 'alpha', 1, 2.5)"
    )
    conn.execute(
        "INSERT INTO faults (ingest_id, tenant, kind, reason) VALUES (1, 'alpha', 'health', 'boot')"
    )
    conn.commit()
    conn.close()


def test_v3_store_gains_shard_column_and_keeps_rows(tmp_path):
    """v3 → v4: serving tables gain ``shard``; pre-sharding rows read NULL."""
    path = tmp_path / "v3.sqlite"
    make_v3_store(path)
    with MetricsStore(path) as store:
        assert store.schema_version == SCHEMA_VERSION
        # Old rows survive with shard = NULL (single-process deployments).
        _, rows = store.query("SELECT tenant, seq, shard FROM serve_events")
        assert rows == [("alpha", 1, None)]
        _, rows = store.query("SELECT tenant, kind, shard FROM faults")
        assert rows == [("alpha", "health", None)]
        # New rows can carry their shard index.
        store.execute(
            "INSERT INTO serve_events (ingest_id, tenant, seq, shard) VALUES (1, 'beta', 1, 1)"
        )
        _, rows = store.query(
            "SELECT tenant, shard FROM serve_events WHERE shard IS NOT NULL"
        )
        assert rows == [("beta", 1)]


def test_v4_store_gains_heap_top_pad_column_and_keeps_rows(tmp_path, monkeypatch):
    """v4 → v5: bench reports gain ``heap_top_pad``; older reports read NULL."""
    from repro.obs import store as store_module

    path = tmp_path / "v4.sqlite"
    monkeypatch.setattr(store_module, "SCHEMA_VERSION", 4)
    with MetricsStore(path) as store:
        ingest_id = store.begin_ingest("bench", "BENCH_x.json", "old")
        store.execute(
            "INSERT INTO bench_reports (ingest_id, benchmark, mode, source) "
            "VALUES (?, 'x', 'quick', 'BENCH_x.json')",
            (ingest_id,),
        )
    monkeypatch.undo()
    with MetricsStore(path) as store:
        assert store.schema_version == SCHEMA_VERSION
        _, rows = store.query("SELECT benchmark, heap_top_pad FROM bench_reports")
        assert rows == [("x", None)]
