"""The results store: sqlite-backed jobs, chunks and finalized results.

One :class:`ResultStore` wraps one sqlite file (WAL mode, so N runner
processes and any number of readers share it safely). The store is dumb
on purpose: it never computes fingerprints, builds models or evaluates
anything — it persists what :mod:`repro.store.jobs` /
:mod:`repro.store.runner` hand it and arbitrates *who may work on what*.

Concurrency model — lease-based claiming:

- :meth:`claim` atomically (``BEGIN IMMEDIATE``) picks the oldest
  claimable job — ``pending``, or ``running`` with an **expired lease**
  (a crashed runner's job becomes claimable again once its lease runs
  out) — and marks it running for the claiming owner.
- Every mutating call a runner makes while executing (:meth:`put_chunk`,
  :meth:`renew`, :meth:`finalize`, :meth:`release`, :meth:`fail`)
  verifies, inside the same transaction, that the caller still owns the
  running job; a runner whose lease was reclaimed gets
  :class:`StaleLeaseError` instead of corrupting the new owner's run.
  Chunk content is a pure function of the plan, so a zombie's chunks
  written *before* reclaim are identical to what the new owner would
  compute — duplicated effort at worst, never divergent data. The
  ``(fingerprint, chunk_index)`` primary key rejects double-landing a
  chunk outright.
- Dedup is a primary-key fact: :meth:`submit` of an existing fingerprint
  touches nothing but the ``submits`` counter, so resubmitting a
  finished evaluation performs zero work and surfaces as a cache hit in
  ``status``.

Wall-clock policy: leases need real time, but engine code must stay a
pure function of its inputs — so the store never calls ``time.time()``
itself. The clock is injected (defaulting to ``time.time`` at this one
boundary), which also makes lease expiry deterministically testable.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Type

#: Injected time source: returns seconds as a float (``time.time`` shape).
Clock = Callable[[], float]

_CLAIMABLE = (
    "state = 'pending' OR (state = 'running' AND lease_expires IS NOT NULL "
    "AND lease_expires <= :now)"
)


class StaleLeaseError(RuntimeError):
    """The caller no longer owns the running job it tried to mutate."""


@dataclass(frozen=True)
class SubmitOutcome:
    """What :meth:`ResultStore.submit` did with a request."""

    fingerprint: str
    #: True when a new job row was created; False is the dedup path.
    created: bool
    #: Job state after the submit — ``done`` means the submit was a pure
    #: cache hit: the result is already queryable, no work will run.
    state: str

    @property
    def cache_hit(self) -> bool:
        return not self.created and self.state == "done"


@dataclass(frozen=True)
class JobRow:
    """One ``jobs`` row, decoded."""

    fingerprint: str
    request: Dict[str, Any]
    state: str
    owner: Optional[str]
    lease_expires: Optional[float]
    attempts: int
    submits: int
    sweep_key: Optional[str]
    sweep_param: Optional[float]
    error: Optional[str]
    submitted_at: float
    finished_at: Optional[float]


def _decode_job(row: sqlite3.Row) -> JobRow:
    return JobRow(
        fingerprint=row["fingerprint"],
        request=json.loads(row["request"]),
        state=row["state"],
        owner=row["owner"],
        lease_expires=row["lease_expires"],
        attempts=row["attempts"],
        submits=row["submits"],
        sweep_key=row["sweep_key"],
        sweep_param=row["sweep_param"],
        error=row["error"],
        submitted_at=row["submitted_at"],
        finished_at=row["finished_at"],
    )


class ResultStore:
    """Open (creating as needed) the store at ``path``.

    ``clock`` is the injected time source for lease bookkeeping and
    submitted/finished timestamps; tests pass a fake to step time
    deterministically. Use as a context manager or call :meth:`close`.
    """

    #: How long a statement waits on another connection's write lock.
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, path: str, clock: Clock = time.time) -> None:
        from repro.store.schema import ensure_schema

        self.path = path
        self._clock = clock
        # Autocommit mode: transaction boundaries are explicit (BEGIN
        # IMMEDIATE) so the claim/ownership checks hold the write lock for
        # exactly the statements that need it.
        self._conn = sqlite3.connect(
            path, isolation_level=None, timeout=self.BUSY_TIMEOUT_S
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute(
            f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}"
        )
        ensure_schema(self._conn)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # -- submission / dedup --------------------------------------------
    def submit(
        self,
        fingerprint: str,
        request: Dict[str, Any],
        sweep_key: Optional[str] = None,
        sweep_param: Optional[float] = None,
    ) -> SubmitOutcome:
        """Enqueue a job, or dedup against the existing fingerprint row.

        The first submission's request (and so its recorded execution
        knobs, e.g. the chunk schedule) wins; a duplicate only bumps the
        ``submits`` counter — zero evaluation work, surfaced as a cache
        hit when the job is already done.
        """
        with self._txn():
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO jobs "
                "(fingerprint, request, sweep_key, sweep_param, submitted_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    json.dumps(request, sort_keys=True),
                    sweep_key,
                    sweep_param,
                    self._clock(),
                ),
            )
            created = cursor.rowcount == 1
            if not created:
                self._conn.execute(
                    "UPDATE jobs SET submits = submits + 1 WHERE fingerprint = ?",
                    (fingerprint,),
                )
            state_row = self._conn.execute(
                "SELECT state FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return SubmitOutcome(fingerprint, created, state_row["state"])

    # -- claiming / leases ---------------------------------------------
    def claim(self, owner: str, lease_seconds: float) -> Optional[JobRow]:
        """Atomically claim the oldest claimable job for ``owner``.

        Claimable: ``pending``, or ``running`` with an expired lease (a
        crashed runner). Returns the claimed row (state already
        ``running`` for this owner) or ``None`` when nothing is claimable.
        """
        with self._txn():
            now = self._clock()
            row = self._conn.execute(
                f"SELECT fingerprint FROM jobs WHERE {_CLAIMABLE} "
                "ORDER BY submitted_at, fingerprint LIMIT 1",
                {"now": now},
            ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', owner = ?, "
                "lease_expires = ?, attempts = attempts + 1, error = NULL "
                "WHERE fingerprint = ?",
                (owner, now + lease_seconds, row["fingerprint"]),
            )
            claimed = self._conn.execute(
                "SELECT * FROM jobs WHERE fingerprint = ?",
                (row["fingerprint"],),
            ).fetchone()
        return _decode_job(claimed)

    def renew(self, fingerprint: str, owner: str, lease_seconds: float) -> None:
        """Extend the caller's lease (raises if the job was reclaimed)."""
        with self._txn():
            self._require_owner(fingerprint, owner)
            self._conn.execute(
                "UPDATE jobs SET lease_expires = ? WHERE fingerprint = ?",
                (self._clock() + lease_seconds, fingerprint),
            )

    def release(self, fingerprint: str, owner: str) -> None:
        """Return a claimed job to ``pending`` (graceful preemption).

        Persisted chunks stay; the next claimer resumes from them.
        """
        with self._txn():
            self._require_owner(fingerprint, owner)
            self._conn.execute(
                "UPDATE jobs SET state = 'pending', owner = NULL, "
                "lease_expires = NULL WHERE fingerprint = ?",
                (fingerprint,),
            )

    def _require_owner(self, fingerprint: str, owner: str) -> None:
        row = self._conn.execute(
            "SELECT state, owner FROM jobs WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None or row["state"] != "running" or row["owner"] != owner:
            held = None if row is None else (row["state"], row["owner"])
            raise StaleLeaseError(
                f"job {fingerprint[:12]} is not running for {owner!r} "
                f"(now: {held}); its lease was reclaimed or it finished"
            )

    # -- chunk persistence ---------------------------------------------
    def put_chunk(
        self,
        fingerprint: str,
        owner: str,
        chunk_index: int,
        start: int,
        stop: int,
        accuracies: List[float],
    ) -> None:
        """Persist one evaluated chunk (the bitwise restart point).

        Ownership is checked in the same transaction, so a runner whose
        lease was reclaimed cannot interleave writes with the new owner;
        the ``(fingerprint, chunk_index)`` primary key makes any remaining
        double-landing a hard error instead of silent corruption.
        """
        with self._txn():
            self._require_owner(fingerprint, owner)
            try:
                self._conn.execute(
                    "INSERT INTO chunks "
                    "(fingerprint, chunk_index, start, stop, accuracies) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        fingerprint,
                        chunk_index,
                        start,
                        stop,
                        json.dumps([float(a) for a in accuracies]),
                    ),
                )
            except sqlite3.IntegrityError as exc:
                raise StaleLeaseError(
                    f"chunk {chunk_index} of job {fingerprint[:12]} already "
                    "landed (double execution?)"
                ) from exc

    def chunk_prefix(self, fingerprint: str) -> List[float]:
        """The stored draws, validated as one contiguous schedule prefix.

        Chunks must be exactly ``0..k-1`` with seamless ``[start, stop)``
        bounds starting at draw 0 — a gap means a corrupt store (chunks
        are only ever written in schedule order by a single lease holder)
        and raises rather than resuming from a misaligned prefix.
        """
        rows = self._conn.execute(
            "SELECT chunk_index, start, stop, accuracies FROM chunks "
            "WHERE fingerprint = ? ORDER BY chunk_index",
            (fingerprint,),
        ).fetchall()
        prefix: List[float] = []
        expected_start = 0
        for position, row in enumerate(rows):
            accs = json.loads(row["accuracies"])
            if (
                row["chunk_index"] != position
                or row["start"] != expected_start
                or row["stop"] - row["start"] != len(accs)
            ):
                raise ValueError(
                    f"store holds a non-contiguous chunk prefix for job "
                    f"{fingerprint[:12]}: chunk {row['chunk_index']} at "
                    f"[{row['start']}, {row['stop']}) with {len(accs)} draws "
                    f"(expected chunk {position} starting at {expected_start})"
                )
            prefix.extend(float(a) for a in accs)
            expected_start = row["stop"]
        return prefix

    # -- completion ----------------------------------------------------
    def finalize(
        self, fingerprint: str, owner: str, result: Dict[str, Any]
    ) -> None:
        """Record the finished ``MCResult`` payload and mark the job done."""
        with self._txn():
            self._require_owner(fingerprint, owner)
            self._mark_done(fingerprint, result)

    def put_result(self, fingerprint: str, result: Dict[str, Any]) -> None:
        """Directly record a finished result for a done job row.

        The in-process cache path (:func:`repro.store.runner.cached_evaluate`)
        evaluated without claiming a lease; its job row is created already
        ``done``. Raises if the fingerprint is unknown.
        """
        with self._txn():
            row = self._conn.execute(
                "SELECT state FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            if row is None:
                raise KeyError(f"no job row for fingerprint {fingerprint[:12]}")
            self._mark_done(fingerprint, result)

    def _mark_done(self, fingerprint: str, result: Dict[str, Any]) -> None:
        """The one "done" transition, inside the caller's transaction:
        store the result row, then mark the job done."""
        now = self._clock()
        self._conn.execute(
            "INSERT OR REPLACE INTO results (fingerprint, result, finished_at) "
            "VALUES (?, ?, ?)",
            (fingerprint, json.dumps(result, sort_keys=True), now),
        )
        self._conn.execute(
            "UPDATE jobs SET state = 'done', owner = NULL, "
            "lease_expires = NULL, finished_at = ? WHERE fingerprint = ?",
            (now, fingerprint),
        )

    def fail(self, fingerprint: str, owner: str, error: str) -> None:
        """Mark a running job failed (kept for post-mortem; see ``gc``)."""
        with self._txn():
            self._require_owner(fingerprint, owner)
            self._conn.execute(
                "UPDATE jobs SET state = 'failed', owner = NULL, "
                "lease_expires = NULL, error = ?, finished_at = ? "
                "WHERE fingerprint = ?",
                (error, self._clock(), fingerprint),
            )

    # -- reads ---------------------------------------------------------
    def job(self, fingerprint: str) -> Optional[JobRow]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return None if row is None else _decode_job(row)

    def jobs(self, sweep_key: Optional[str] = None) -> List[JobRow]:
        """Job rows, oldest first, optionally of one sweep."""
        where = ""
        params: List[str] = []
        if sweep_key is not None:
            where, params = "WHERE sweep_key = ?", [sweep_key]
        rows = self._conn.execute(
            f"SELECT * FROM jobs {where} ORDER BY submitted_at, fingerprint",
            params,
        ).fetchall()
        return [_decode_job(row) for row in rows]

    def result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The finalized ``MCResult.to_dict`` payload, if the job is done."""
        row = self._conn.execute(
            "SELECT result FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is None:
            return None
        payload: Dict[str, Any] = json.loads(row["result"])
        return payload

    def draws_stored(self, fingerprint: str) -> int:
        """Draw count persisted so far (chunks for live jobs, result after)."""
        row = self._conn.execute(
            "SELECT result FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is not None:
            return len(json.loads(row["result"])["accuracies"])
        count = self._conn.execute(
            "SELECT COALESCE(SUM(stop - start), 0) AS draws FROM chunks "
            "WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return int(count["draws"])

    # -- maintenance ---------------------------------------------------
    def gc(self, drop_failed: bool = False) -> Dict[str, int]:
        """Housekeeping: fold finished jobs' chunks away, reset dead leases.

        - chunks of ``done`` jobs are deleted (their draws live on in the
          finalized result payload);
        - ``running`` jobs whose lease expired are reset to ``pending``
          so ``status`` reflects reality even with no runner around;
        - with ``drop_failed``, failed job rows (and their chunks, via
          cascade) are removed for a clean resubmit.

        Returns per-action counts.
        """
        with self._txn():
            chunks = self._conn.execute(
                "DELETE FROM chunks WHERE fingerprint IN "
                "(SELECT fingerprint FROM jobs WHERE state = 'done')"
            ).rowcount
            expired = self._conn.execute(
                "UPDATE jobs SET state = 'pending', owner = NULL, "
                "lease_expires = NULL WHERE state = 'running' "
                "AND lease_expires IS NOT NULL AND lease_expires <= ?",
                (self._clock(),),
            ).rowcount
            failed = 0
            if drop_failed:
                failed = self._conn.execute(
                    "DELETE FROM jobs WHERE state = 'failed'"
                ).rowcount
        return {
            "chunks_folded": int(chunks),
            "leases_reset": int(expired),
            "failed_dropped": int(failed),
        }

    # -- internals -----------------------------------------------------
    def _txn(self) -> "_Transaction":
        return _Transaction(self._conn)


class _Transaction:
    """``BEGIN IMMEDIATE`` context: take the write lock up front so every
    read inside the block sees the state the following writes commit
    against (the claim/ownership protocol's atomicity)."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")
