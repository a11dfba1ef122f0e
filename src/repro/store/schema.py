"""Result-store sqlite schema: versioned DDL.

The store is one sqlite file in WAL mode (many readers, one writer at a
time — exactly the many-runners/one-store shape). Three tables:

- ``jobs`` — one row per fingerprint: the serialized
  :class:`~repro.store.jobs.JobRequest`, the lifecycle state
  (``pending → running → done | failed``), lease bookkeeping for the
  runner's claim protocol, and dedup/sweep metadata.
- ``chunks`` — per-chunk accuracy arrays keyed by ``(fingerprint,
  chunk_index)``: the bitwise restart points an interrupted job resumes
  from. The primary key doubles as the exactly-once guard — a chunk can
  land only once.
- ``results`` — finalized :class:`~repro.evaluation.montecarlo.MCResult`
  payloads (``to_dict`` JSON), the unit queries and cache hits read.

``schema_version`` lives in ``store_meta``. Version 1 is the first and
only layout; opening a *newer* store than this code understands fails
loudly instead of corrupting it. The change that first alters the layout
adds the step that walks version-1 files forward.
"""

from __future__ import annotations

import sqlite3

#: Current schema version.
SCHEMA_VERSION = 1

_DDL = (
    """
    CREATE TABLE IF NOT EXISTS store_meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS jobs (
        fingerprint TEXT PRIMARY KEY,
        request TEXT NOT NULL,
        state TEXT NOT NULL DEFAULT 'pending'
            CHECK (state IN ('pending', 'running', 'done', 'failed')),
        owner TEXT,
        lease_expires REAL,
        attempts INTEGER NOT NULL DEFAULT 0,
        submits INTEGER NOT NULL DEFAULT 1,
        sweep_key TEXT,
        sweep_param REAL,
        error TEXT,
        submitted_at REAL NOT NULL,
        finished_at REAL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_jobs_state
        ON jobs (state, submitted_at, fingerprint)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_jobs_sweep ON jobs (sweep_key)
    """,
    """
    CREATE TABLE IF NOT EXISTS chunks (
        fingerprint TEXT NOT NULL
            REFERENCES jobs (fingerprint) ON DELETE CASCADE,
        chunk_index INTEGER NOT NULL,
        start INTEGER NOT NULL,
        stop INTEGER NOT NULL,
        accuracies TEXT NOT NULL,
        PRIMARY KEY (fingerprint, chunk_index)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        fingerprint TEXT PRIMARY KEY
            REFERENCES jobs (fingerprint) ON DELETE CASCADE,
        result TEXT NOT NULL,
        finished_at REAL NOT NULL
    )
    """,
)


def schema_version(conn: sqlite3.Connection) -> int:
    """The store file's recorded schema version (0 = empty/new file)."""
    row = conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' "
        "AND name = 'store_meta'"
    ).fetchone()
    if row is None:
        return 0
    versions = conn.execute(
        "SELECT value FROM store_meta WHERE key = 'schema_version'"
    ).fetchone()
    return int(versions[0]) if versions is not None else 0


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create the schema in a fresh file; refuse a file newer than
    :data:`SCHEMA_VERSION` (running old code against it would silently
    drop whatever its new columns mean)."""
    version = schema_version(conn)
    if version > SCHEMA_VERSION:
        raise RuntimeError(
            f"store schema version {version} is newer than this code's "
            f"{SCHEMA_VERSION}; upgrade the package instead of the file"
        )
    if version == 0:
        with conn:
            for statement in _DDL:
                conn.execute(statement)
            conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
