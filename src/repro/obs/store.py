"""The schema-versioned sqlite metrics store.

One file (or ``:memory:``) holds every ingested artefact as plain relational
rows.  Two properties shape the design:

* **Deterministic content.**  Nothing time- or machine-dependent is written
  by the store itself — no timestamps, no autoincrement counters beyond the
  rowid sequence implied by insertion order.  Ingesting the same inputs into
  a fresh store therefore yields a byte-identical :meth:`MetricsStore.dump`,
  which is what the round-trip determinism tests pin.

* **Versioned schema with recorded migrations.**  The schema carries a
  version number and a ``schema_migrations`` table listing every applied
  step, mirroring the checkpoint-format migration pattern of
  :mod:`repro.core.framework` (``CHECKPOINT_FORMAT`` + per-format step
  lists): opening an older store applies the missing steps in order and
  records them; opening a store written by a *newer* build fails with an
  actionable error instead of misreading it.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

__all__ = ["MetricsStore", "SCHEMA_VERSION"]

#: Version written by this build.  Bump together with a new entry in
#: :data:`_SCHEMA_MIGRATIONS`; never edit an existing entry — stores in the
#: wild replay exactly the recorded steps.
SCHEMA_VERSION = 5

#: Ordered migration steps ``version -> (description, [DDL statements])``,
#: the relational mirror of ``repro.core.framework._CONFIG_MIGRATIONS``.
#: Version 1 is the base schema (runs, sweeps, benches, figure tables);
#: version 2 adds the serving event log and the float32 drift facts;
#: version 3 adds the serving fault/health/supervisor record table;
#: version 4 adds the shard column (process-sharded serving) to both;
#: version 5 records the heap top pad a bench report ran under.
_SCHEMA_MIGRATIONS: dict[int, tuple[str, list[str]]] = {
    1: (
        "base schema: ingests, results, monthly, bench reports, figure tables",
        [
            """
            CREATE TABLE ingests (
                ingest_id INTEGER PRIMARY KEY,
                kind      TEXT NOT NULL,
                source    TEXT NOT NULL,
                label     TEXT NOT NULL DEFAULT ''
            )
            """,
            """
            CREATE TABLE results (
                result_id            INTEGER PRIMARY KEY,
                ingest_id            INTEGER NOT NULL REFERENCES ingests(ingest_id),
                name                 TEXT NOT NULL,
                cell_id              TEXT,
                group_id             TEXT,
                assignments          TEXT,
                label                TEXT NOT NULL,
                policy               TEXT NOT NULL,
                arrivals             INTEGER,
                completions          INTEGER,
                cr                   REAL,
                kcr                  REAL,
                ndcg_cr              REAL,
                qg                   REAL,
                kqg                  REAL,
                ndcg_qg              REAL,
                mean_update_seconds  REAL,
                mean_decision_seconds REAL,
                mean_retrain_seconds REAL
            )
            """,
            """
            CREATE TABLE monthly (
                result_id INTEGER NOT NULL REFERENCES results(result_id),
                measure   TEXT NOT NULL,
                month     INTEGER NOT NULL,
                value     REAL
            )
            """,
            """
            CREATE TABLE bench_reports (
                report_id INTEGER PRIMARY KEY,
                ingest_id INTEGER NOT NULL REFERENCES ingests(ingest_id),
                benchmark TEXT NOT NULL,
                mode      TEXT,
                source    TEXT NOT NULL
            )
            """,
            """
            CREATE TABLE bench_metrics (
                report_id INTEGER NOT NULL REFERENCES bench_reports(report_id),
                path      TEXT NOT NULL,
                value     REAL NOT NULL
            )
            """,
            """
            CREATE TABLE figures (
                ingest_id     INTEGER NOT NULL REFERENCES ingests(ingest_id),
                figure        TEXT NOT NULL,
                section_index INTEGER NOT NULL,
                title         TEXT,
                row_header    TEXT NOT NULL,
                float_format  TEXT NOT NULL
            )
            """,
            """
            CREATE TABLE figure_cells (
                ingest_id     INTEGER NOT NULL REFERENCES ingests(ingest_id),
                figure        TEXT NOT NULL,
                section_index INTEGER NOT NULL,
                row_index     INTEGER NOT NULL,
                row_label     TEXT NOT NULL,
                col_index     INTEGER NOT NULL,
                col_label     TEXT NOT NULL,
                value         REAL
            )
            """,
        ],
    ),
    2: (
        "serving event log (per-arrival) + float32 drift probe facts",
        [
            """
            CREATE TABLE serve_events (
                ingest_id       INTEGER NOT NULL REFERENCES ingests(ingest_id),
                tenant          TEXT NOT NULL,
                seq             INTEGER NOT NULL,
                events_consumed INTEGER,
                queue_depth     INTEGER,
                latency_ms      REAL,
                completed       INTEGER,
                quality_gain    REAL,
                trainer         TEXT
            )
            """,
            """
            CREATE TABLE drift (
                result_id INTEGER REFERENCES results(result_id),
                ingest_id INTEGER NOT NULL REFERENCES ingests(ingest_id),
                policy    TEXT NOT NULL,
                arrivals  INTEGER NOT NULL,
                dtype     TEXT NOT NULL,
                tasks     INTEGER,
                max_abs   REAL NOT NULL,
                max_rel   REAL NOT NULL
            )
            """,
        ],
    ),
    3: (
        "serving fault injection / health transition / supervisor action records",
        [
            """
            CREATE TABLE faults (
                ingest_id       INTEGER NOT NULL REFERENCES ingests(ingest_id),
                tenant          TEXT NOT NULL,
                kind            TEXT NOT NULL,
                site            TEXT,
                from_state      TEXT,
                to_state        TEXT,
                reason          TEXT,
                events_consumed INTEGER,
                detail          TEXT
            )
            """,
        ],
    ),
    4: (
        "shard column on serving records (process-sharded deployments); "
        "NULL means a single-process server",
        [
            "ALTER TABLE serve_events ADD COLUMN shard INTEGER",
            "ALTER TABLE faults ADD COLUMN shard INTEGER",
        ],
    ),
    5: (
        "heap_top_pad column on bench reports (glibc top pad in bytes the run "
        "was under); NULL when the report records none",
        ["ALTER TABLE bench_reports ADD COLUMN heap_top_pad INTEGER"],
    ),
}


class MetricsStore:
    """One sqlite connection with the observability schema applied.

    Opening a path creates the schema (or migrates an older one) in place;
    ``":memory:"`` gives a throwaway store for one-shot reporting.  Usable
    as a context manager (commits and closes on exit).
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self.conn = sqlite3.connect(self.path)
        self._migrate()

    # ------------------------------------------------------------------ #
    def _migrate(self) -> None:
        current = self._current_version()
        if current > SCHEMA_VERSION:
            raise ValueError(
                f"{self.path} holds schema version {current}; this build reads "
                f"up to version {SCHEMA_VERSION} only (open it with the build "
                "that wrote it)"
            )
        for version in range(current + 1, SCHEMA_VERSION + 1):
            description, statements = _SCHEMA_MIGRATIONS[version]
            for statement in statements:
                self.conn.execute(statement)
            self.conn.execute(
                "INSERT INTO schema_migrations (version, description) VALUES (?, ?)",
                (version, description),
            )
        self.conn.commit()

    def _current_version(self) -> int:
        exists = self.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = 'schema_migrations'"
        ).fetchone()
        if exists is None:
            self.conn.execute(
                "CREATE TABLE schema_migrations ("
                "version INTEGER PRIMARY KEY, description TEXT NOT NULL)"
            )
            return 0
        row = self.conn.execute("SELECT MAX(version) FROM schema_migrations").fetchone()
        return int(row[0]) if row[0] is not None else 0

    @property
    def schema_version(self) -> int:
        return self._current_version()

    # ------------------------------------------------------------------ #
    def execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        return self.conn.execute(sql, params)

    def query(self, sql: str, params: tuple = ()) -> tuple[list[str], list[tuple]]:
        """Run a query; returns ``(column names, rows)``."""
        cursor = self.conn.execute(sql, params)
        columns = [entry[0] for entry in cursor.description] if cursor.description else []
        return columns, cursor.fetchall()

    def begin_ingest(self, kind: str, source: str, label: str = "") -> int:
        cursor = self.conn.execute(
            "INSERT INTO ingests (kind, source, label) VALUES (?, ?, ?)",
            (kind, source, label),
        )
        return int(cursor.lastrowid)

    def commit(self) -> None:
        self.conn.commit()

    def dump(self) -> str:
        """The full store as SQL text (``iterdump``); byte-stable for equal inputs."""
        return "\n".join(self.conn.iterdump())

    def close(self) -> None:
        self.conn.commit()
        self.conn.close()

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        self.conn.close()
