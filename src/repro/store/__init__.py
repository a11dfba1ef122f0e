"""Evaluation-as-a-service: fingerprinted result store + resumable jobs.

The plan/executor split made a Monte-Carlo evaluation a pure, serializable
object (an :class:`~repro.evaluation.plan.EvalPlan` is a value; its result
is a pure function of plan + model weights + dataset), and chunked
execution made every chunk boundary a bitwise-stable restart point. This
package is the serving tier on top of those two facts:

- :mod:`repro.store.fingerprint` — the canonical **plan fingerprint**:
  SHA-256 over a normalized payload of model weights digest, dataset
  digest, variation spec, sample cap, seed, domain and stopping params.
  Execution knobs (backend, workers, chunk size, data block) are
  explicitly excluded, so the same logical evaluation dedups across
  machines and backends.
- :mod:`repro.store.schema` / :mod:`repro.store.db` — a sqlite results
  store (stdlib ``sqlite3``, WAL mode, schema-versioned with a migration
  hook) holding job rows, per-chunk accuracy arrays keyed by
  ``(fingerprint, chunk_index)``, and finalized
  :class:`~repro.evaluation.montecarlo.MCResult` payloads.
- :mod:`repro.store.jobs` / :mod:`repro.store.runner` — serializable job
  requests and the lease-locked runner (``correctnet-jobs
  submit|run|status|gc``): N concurrent runner processes drain one store
  without double-executing a job, and an interrupted job resumes
  chunk-by-chunk from its stored prefix, bitwise-identical to an
  uninterrupted run (adaptive early stopping included).
- :mod:`repro.store.query` — reconstruct sweep curves from the store
  (``correctnet-query``) with the same ci95/draws columns
  ``correctnet-eval`` prints.

:func:`~repro.store.runner.cached_evaluate` is the in-process face of the
same cache: the pipeline opts in via ``EvalConfig.store_path`` and its
full-protocol evaluations become content-addressed store lookups.
"""

from repro.store.db import (
    JobRow,
    ResultStore,
    StaleLeaseError,
    SubmitOutcome,
)
from repro.store.fingerprint import (
    FINGERPRINT_VERSION,
    fingerprint_payload,
    plan_fingerprint,
)
from repro.store.jobs import JobRequest, materialize
from repro.store.query import sweep_points, SweepPoint
from repro.store.runner import cached_evaluate, drain, DrainStats, run_job
from repro.utils.digest import canonical_json, dataset_digest, weights_digest

__all__ = [
    "FINGERPRINT_VERSION",
    "JobRequest",
    "JobRow",
    "ResultStore",
    "StaleLeaseError",
    "SubmitOutcome",
    "SweepPoint",
    "DrainStats",
    "cached_evaluate",
    "canonical_json",
    "dataset_digest",
    "drain",
    "fingerprint_payload",
    "materialize",
    "plan_fingerprint",
    "run_job",
    "sweep_points",
    "weights_digest",
]
