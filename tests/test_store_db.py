"""ResultStore: schema lifecycle, dedup, leases, chunks, gc.

Wall-clock never enters these tests: the store's clock is injected, so
lease expiry is stepped deterministically with a fake.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.store import ResultStore, StaleLeaseError
from repro.store import schema as store_schema
from repro.store.schema import schema_version


class FakeClock:
    """Deterministic time source for lease tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    with ResultStore(str(tmp_path / "store.sqlite"), clock=clock) as s:
        yield s


FP_A = "a" * 64
FP_B = "b" * 64
REQUEST = {"model": "mlp", "n_samples": 4}


class TestSchema:
    def test_fresh_store_is_current_version_in_wal_mode(self, store):
        assert schema_version(store._conn) == store_schema.SCHEMA_VERSION
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_reopen_is_idempotent(self, tmp_path, clock):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path, clock=clock) as s:
            s.submit(FP_A, REQUEST)
        with ResultStore(path, clock=clock) as s:
            assert s.job(FP_A) is not None

    def test_newer_schema_than_code_is_refused(self, tmp_path, clock):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path, clock=clock):
            pass
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(store_schema.SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(RuntimeError, match="newer than this code"):
            ResultStore(path, clock=clock)


class TestSubmitDedup:
    def test_first_submit_creates_pending(self, store):
        outcome = store.submit(FP_A, REQUEST, sweep_key="k", sweep_param=0.5)
        assert outcome.created and outcome.state == "pending"
        assert not outcome.cache_hit
        row = store.job(FP_A)
        assert row.request == REQUEST
        assert (row.sweep_key, row.sweep_param) == ("k", 0.5)

    def test_duplicate_submit_only_bumps_counter(self, store):
        store.submit(FP_A, REQUEST)
        dup = store.submit(FP_A, {"model": "other"})
        assert not dup.created
        row = store.job(FP_A)
        assert row.submits == 2
        # First submission's request wins (its pinned execution knobs are
        # the schedule every runner must follow).
        assert row.request == REQUEST

    def test_cache_hit_requires_done(self, store, clock):
        store.submit(FP_A, REQUEST)
        assert not store.submit(FP_A, REQUEST).cache_hit
        row = store.claim("w", 10.0)
        store.finalize(row.fingerprint, "w", {"accuracies": [0.5]})
        assert store.submit(FP_A, REQUEST).cache_hit


class TestClaimAndLeases:
    def test_claims_oldest_first_and_exhausts(self, store, clock):
        store.submit(FP_B, REQUEST)
        clock.advance(1.0)
        store.submit(FP_A, REQUEST)
        first = store.claim("w1", 10.0)
        assert first.fingerprint == FP_B  # older submission wins
        assert first.state == "running" and first.owner == "w1"
        assert store.claim("w2", 10.0).fingerprint == FP_A
        assert store.claim("w3", 10.0) is None

    def test_running_job_with_live_lease_is_not_claimable(self, store, clock):
        store.submit(FP_A, REQUEST)
        store.claim("w1", lease_seconds=10.0)
        clock.advance(9.0)
        assert store.claim("w2", 10.0) is None

    def test_expired_lease_is_reclaimed(self, store, clock):
        store.submit(FP_A, REQUEST)
        store.claim("w1", lease_seconds=10.0)
        clock.advance(11.0)
        reclaimed = store.claim("w2", 10.0)
        assert reclaimed.fingerprint == FP_A
        assert reclaimed.owner == "w2"
        assert reclaimed.attempts == 2

    def test_zombie_owner_is_fenced_from_every_mutation(self, store, clock):
        store.submit(FP_A, REQUEST)
        store.claim("w1", lease_seconds=10.0)
        clock.advance(11.0)
        store.claim("w2", 10.0)
        with pytest.raises(StaleLeaseError):
            store.put_chunk(FP_A, "w1", 0, 0, 2, [0.5, 0.6])
        with pytest.raises(StaleLeaseError):
            store.renew(FP_A, "w1", 10.0)
        with pytest.raises(StaleLeaseError):
            store.finalize(FP_A, "w1", {"accuracies": []})
        with pytest.raises(StaleLeaseError):
            store.release(FP_A, "w1")
        with pytest.raises(StaleLeaseError):
            store.fail(FP_A, "w1", "boom")

    def test_renew_extends_the_lease(self, store, clock):
        store.submit(FP_A, REQUEST)
        store.claim("w1", lease_seconds=10.0)
        clock.advance(9.0)
        store.renew(FP_A, "w1", 10.0)
        clock.advance(9.0)  # 18s after claim, but renewed at 9s
        assert store.claim("w2", 10.0) is None

    def test_release_returns_to_pending_and_keeps_chunks(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w1", 10.0)
        store.put_chunk(FP_A, "w1", 0, 0, 2, [0.5, 0.6])
        store.release(FP_A, "w1")
        row = store.job(FP_A)
        assert row.state == "pending" and row.owner is None
        assert store.chunk_prefix(FP_A) == [0.5, 0.6]


class TestChunks:
    def test_prefix_concatenates_in_schedule_order(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        store.put_chunk(FP_A, "w", 0, 0, 2, [0.1, 0.2])
        store.put_chunk(FP_A, "w", 1, 2, 4, [0.3, 0.4])
        assert store.chunk_prefix(FP_A) == [0.1, 0.2, 0.3, 0.4]
        assert store.draws_stored(FP_A) == 4

    def test_double_landing_a_chunk_is_an_error(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        store.put_chunk(FP_A, "w", 0, 0, 2, [0.1, 0.2])
        with pytest.raises(StaleLeaseError, match="already"):
            store.put_chunk(FP_A, "w", 0, 0, 2, [0.1, 0.2])

    def test_non_contiguous_prefix_is_rejected(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        store.put_chunk(FP_A, "w", 0, 0, 2, [0.1, 0.2])
        store.put_chunk(FP_A, "w", 2, 4, 6, [0.5, 0.6])  # gap at chunk 1
        with pytest.raises(ValueError, match="non-contiguous"):
            store.chunk_prefix(FP_A)

    def test_misaligned_bounds_are_rejected(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        store.put_chunk(FP_A, "w", 0, 0, 3, [0.1, 0.2])  # stop-start != len
        with pytest.raises(ValueError, match="non-contiguous"):
            store.chunk_prefix(FP_A)


class TestCompletion:
    def test_finalize_records_result(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        payload = {"accuracies": [0.5, 0.7], "stopped_early": False}
        store.finalize(FP_A, "w", payload)
        row = store.job(FP_A)
        assert row.state == "done" and row.owner is None
        assert store.result(FP_A) == payload
        assert store.draws_stored(FP_A) == 2

    def test_fail_records_error(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        store.fail(FP_A, "w", "checkpoint changed")
        row = store.job(FP_A)
        assert row.state == "failed"
        assert "checkpoint changed" in row.error

    def test_put_result_requires_a_job_row(self, store):
        with pytest.raises(KeyError):
            store.put_result(FP_A, {"accuracies": []})

    def test_jobs_filters(self, store):
        store.submit(FP_A, REQUEST, sweep_key="k")
        store.submit(FP_B, REQUEST)
        store.claim("w", 10.0)
        assert [(r.fingerprint, r.state) for r in store.jobs()] == [
            (FP_A, "running"), (FP_B, "pending")]
        assert {r.fingerprint for r in store.jobs(sweep_key="k")} == {FP_A}
        assert store.jobs(sweep_key="none") == []


class TestGc:
    def test_gc_folds_done_chunks_and_resets_dead_leases(self, store, clock):
        store.submit(FP_A, REQUEST)
        store.submit(FP_B, REQUEST)
        store.claim("w1", 10.0)  # FP_A (older? same clock -> fingerprint order)
        done_fp = next(r.fingerprint for r in store.jobs()
                       if r.state == "running")
        store.put_chunk(done_fp, "w1", 0, 0, 2, [0.5, 0.6])
        store.finalize(done_fp, "w1", {"accuracies": [0.5, 0.6]})
        crashed = store.claim("w2", 10.0)
        clock.advance(11.0)
        counts = store.gc()
        assert counts == {
            "chunks_folded": 1, "leases_reset": 1, "failed_dropped": 0,
        }
        assert store.job(crashed.fingerprint).state == "pending"
        # Folded chunks are gone, but the finalized draws remain.
        assert store.chunk_prefix(done_fp) == []
        assert store.draws_stored(done_fp) == 2

    def test_gc_drop_failed_clears_for_resubmit(self, store):
        store.submit(FP_A, REQUEST)
        store.claim("w", 10.0)
        store.fail(FP_A, "w", "boom")
        counts = store.gc(drop_failed=True)
        assert counts["failed_dropped"] == 1
        assert store.job(FP_A) is None
        # Resubmission starts a fresh attempt.
        assert store.submit(FP_A, REQUEST).created
