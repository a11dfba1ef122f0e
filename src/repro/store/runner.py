"""Execute store jobs: claim, resume from stored chunks, finalize.

The runner is the loop ``correctnet-jobs run`` drives: claim the oldest
claimable job under a lease, re-materialize its request, resume from the
chunk prefix already in the store, evaluate the remaining chunks through
:class:`~repro.evaluation.executor.IncrementalEvaluation` (persisting
each chunk and renewing the lease as it lands), and finalize the
:class:`~repro.evaluation.montecarlo.MCResult`.

Why resumption is bitwise-exact: chunk content is a pure function of
(plan, seed schedule) — stream ``i`` always feeds draw ``i`` — and the
stopping rule looks at its own draw counts, not at chunk boundaries. A
resumed run re-derives the chunks from the stored request, evaluates
exactly the ones the interrupted run never got to, and assembles exactly
the accuracies an uninterrupted run would have, at any chunk size — the
property the tests and the CI kill-and-resume smoke scenario diff for.

Exactly-once under N runners: the claim transaction is the only entry
point to a job, leases fence crashed owners, and every mutation
re-verifies ownership (see :mod:`repro.store.db`). A runner that loses
its lease gets :class:`~repro.store.db.StaleLeaseError` and walks away;
the job's truth lives with whoever holds the lease now.

:func:`cached_evaluate` is the in-process face of the same store: the
pipeline's full-protocol evaluations become fingerprint lookups, falling
back to a normal :func:`~repro.evaluation.executor.execute` whose result
is recorded for next time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.evaluation.executor import execute, IncrementalEvaluation
from repro.evaluation.montecarlo import MCResult, MonteCarloEvaluator
from repro.nn.module import Module
from repro.store.db import JobRow, ResultStore, StaleLeaseError
from repro.store.fingerprint import plan_fingerprint
from repro.store.jobs import JobRequest, materialize
from repro.variation.spec import to_dict as spec_to_dict, VariationLike


@dataclass(frozen=True)
class JobOutcome:
    """What one claimed job execution amounted to."""

    fingerprint: str
    #: ``done`` | ``preempted`` (max-chunks reached, released back to
    #: pending) | ``failed`` | ``stale`` (lease reclaimed mid-run).
    status: str
    #: Total draws held after this execution (resumed + newly run).
    draws: int = 0
    #: Draws restored from the store before any new work.
    resumed_draws: int = 0
    #: Chunks evaluated by this execution (excludes resumed chunks).
    chunks_run: int = 0
    error: Optional[str] = None


@dataclass
class DrainStats:
    """Aggregate of one :func:`drain` call."""

    outcomes: List[JobOutcome] = field(default_factory=list)

    @property
    def done(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "done")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def chunks_run(self) -> int:
        return sum(o.chunks_run for o in self.outcomes)


def run_job(
    store: ResultStore,
    row: JobRow,
    owner: str,
    lease_seconds: float = 60.0,
    max_chunks: Optional[int] = None,
) -> JobOutcome:
    """Execute one claimed job (see module docstring).

    ``max_chunks`` bounds the chunks evaluated in this claim; when the
    bound fires the job is released back to ``pending`` with its chunks
    persisted — cooperative preemption, the graceful form of the
    interruption the lease protocol handles for crashes.
    """
    fingerprint = row.fingerprint
    try:
        request = JobRequest.from_dict(row.request)
        materialized = materialize(request)
        if materialized.fingerprint != fingerprint:
            message = (
                "fingerprint mismatch on re-materialization: store has "
                f"{fingerprint[:12]}, inputs now hash to "
                f"{materialized.fingerprint[:12]} — did the checkpoint "
                "file change since submit?"
            )
            store.fail(fingerprint, owner, message)
            return JobOutcome(fingerprint, "failed", error=message)
        prefix = store.chunk_prefix(fingerprint)

        def emit(index: int, start: int, stop: int, accs: Sequence[float]) -> None:
            store.put_chunk(fingerprint, owner, index, start, stop, list(accs))
            store.renew(fingerprint, owner, lease_seconds)

        evaluation = IncrementalEvaluation(
            materialized.plan, materialized.model, materialized.dataset,
            on_chunk=emit,
        )
        if prefix:
            evaluation.resume(prefix)
        chunks_run = 0
        with evaluation:
            while not evaluation.done:
                if max_chunks is not None and chunks_run >= max_chunks:
                    store.release(fingerprint, owner)
                    return JobOutcome(
                        fingerprint,
                        "preempted",
                        draws=len(evaluation.accuracies),
                        resumed_draws=len(prefix),
                        chunks_run=chunks_run,
                    )
                evaluation.run_chunk()
                chunks_run += 1
        store.finalize(fingerprint, owner, evaluation.result().to_dict())
        return JobOutcome(
            fingerprint,
            "done",
            draws=len(evaluation.accuracies),
            resumed_draws=len(prefix),
            chunks_run=chunks_run,
        )
    except StaleLeaseError as exc:
        return JobOutcome(fingerprint, "stale", error=str(exc))
    except Exception as exc:  # noqa: BLE001 — a job failure must not kill the drain
        message = f"{type(exc).__name__}: {exc}"
        try:
            store.fail(fingerprint, owner, message)
        except StaleLeaseError:
            return JobOutcome(fingerprint, "stale", error=message)
        return JobOutcome(fingerprint, "failed", error=message)


def drain(
    store: ResultStore,
    owner: str,
    lease_seconds: float = 60.0,
    max_jobs: Optional[int] = None,
    max_chunks_per_job: Optional[int] = None,
) -> DrainStats:
    """Claim-and-run until the store has nothing claimable (or limits hit).

    With ``max_chunks_per_job`` the runner round-robins: each claim
    advances a job by that many chunks and releases it, so several long
    sweeps share one runner fairly. Every claim makes progress (at least
    one chunk, unless the job was already complete in the store), so the
    loop terminates.
    """
    if max_chunks_per_job is not None and max_chunks_per_job < 1:
        raise ValueError(
            f"max_chunks_per_job must be at least 1, got {max_chunks_per_job}"
        )
    stats = DrainStats()
    while max_jobs is None or len(stats.outcomes) < max_jobs:
        row = store.claim(owner, lease_seconds)
        if row is None:
            break
        stats.outcomes.append(
            run_job(
                store,
                row,
                owner=owner,
                lease_seconds=lease_seconds,
                max_chunks=max_chunks_per_job,
            )
        )
    return stats


def cached_evaluate(
    store_path: str,
    evaluator: MonteCarloEvaluator,
    model: Module,
    variation: "VariationLike",
) -> MCResult:
    """Evaluate through the store: fingerprint lookup first, execute once.

    The in-process complement of the job runner — same fingerprints, same
    store file, no lease (the evaluation runs right here, synchronously).
    On a miss the result is executed through the evaluator's own plan —
    racing its chunks on the evaluator's clock, exactly as
    ``evaluator.evaluate`` would — and recorded under a ``done`` job row,
    so pipeline runs, CLI jobs and other machines all hit one cache.

    Weight-domain plans only. An analogized model's ``state_dict`` is
    empty, so every analog model would digest alike and share one cache
    entry; analog evaluations go through the job store instead
    (``correctnet-jobs submit --analog``), whose ``materialize`` digests
    the weights before ``analogize`` and hashes the analog parameters.
    """
    was_training = model.training
    model.eval()
    try:
        plan = evaluator.plan(model, variation)
        if plan.domain == "analog":
            raise ValueError(
                "cached_evaluate cannot fingerprint an analog plan: an "
                "analogized model has no weights left to digest. Submit "
                "it as a store job (correctnet-jobs submit --analog), whose "
                "fingerprint digests the weights before analogize and "
                "hashes the analog parameters."
            )
        fingerprint = plan_fingerprint(plan, model, evaluator.dataset)
        with ResultStore(store_path) as store:
            cached = store.result(fingerprint)
            if cached is not None:
                return MCResult.from_dict(cached)
            result = execute(
                plan, model, evaluator.dataset, clock=evaluator.clock
            )
            request = {
                "origin": "inline",
                "spec": spec_to_dict(plan.variation),
                "n_samples": plan.n_samples,
                "seed": plan.seed,
                "domain": plan.domain,
            }
            store.submit(fingerprint, request)
            store.put_result(fingerprint, result.to_dict())
            return result
    finally:
        model.train(was_training)
