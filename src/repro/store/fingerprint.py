"""Canonical plan fingerprints: one hash per *logical* evaluation.

A Monte-Carlo result is a pure function of (model weights, dataset,
variation spec, seed schedule, domain, stopping rule). The fingerprint is
SHA-256 over exactly those inputs, serialized canonically — and over
nothing else. Execution-only knobs (backend, workers, chunk size, data
blocking) are **excluded by construction**: two machines evaluating the
same logical plan through different backends produce the same
fingerprint, which is what makes the result store a cross-machine dedup
cache rather than a per-invocation log.

Canonicalization rules (the invariant ``docs/CONTRACTS.md`` records):

- payloads are normalized to JSON with sorted keys and fixed separators,
  so dict insertion order never leaks into the hash;
- numpy scalars are converted to their Python equivalents; floats use
  Python's shortest-round-trip ``repr`` (stable across processes and
  platforms for IEEE-754 doubles); NaN/Inf are rejected;
- seeds must be portable values (``int`` or ``str``) — a live
  ``Generator`` has no canonical form and is rejected;
- model identity is a digest of the weights themselves (names, shapes,
  dtypes, bytes), not a file path; dataset identity likewise digests the
  arrays. Content addressing is what lets fingerprints agree across
  machines with different checkout layouts;
- per-layer scenarios, Fig. 9's layer subsets included, are ``LayerMap``
  specs and fingerprint through ``to_dict`` like any other spec.

No wall clock, no environment, no randomness may enter this module: a
fingerprint computed today, on any machine, must equal one computed from
the same inputs anywhere else.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Union

from repro.data.dataset import ArrayDataset
from repro.evaluation.plan import EvalPlan
from repro.evaluation.sequential import CONFIDENCE, HalfWidthRule
from repro.nn.module import Module
from repro.utils.digest import canonical_json, dataset_digest, weights_digest
from repro.variation.spec import to_dict as spec_to_dict

#: Bump when the payload layout changes; part of the hashed payload, so
#: fingerprints from different layouts can never collide silently.
#: v2: ``dtype`` joined the payload — a float32 evaluation is a different
#: logical result than a float64 one (unlike backend/workers/chunking,
#: which remain excluded).
FINGERPRINT_VERSION = 2


def stopping_payload(rule: object) -> Optional[Dict[str, Any]]:
    """Canonical form of a stopping rule (``None`` = fixed-S protocol).

    Anything other than ``None`` or a
    :class:`~repro.evaluation.sequential.HalfWidthRule` has no canonical
    form and is rejected. ``confidence`` and ``method`` are constants
    (every interval is the 95% CLT one); they stay in the payload so its
    keys, and every stored fingerprint, stay stable.
    """
    if rule is None:
        return None
    if isinstance(rule, HalfWidthRule):
        return {
            "kind": "half_width",
            "tolerance": rule.tolerance,
            "confidence": CONFIDENCE,
            "method": "clt",
            "min_samples": rule.min_samples,
        }
    raise ValueError(
        f"stopping rule {type(rule).__name__} has no canonical fingerprint "
        "form; only HalfWidthRule is store-serializable"
    )


def _seed_value(seed: Any) -> Union[int, str]:
    if isinstance(seed, bool) or not isinstance(seed, (int, str)):
        raise ValueError(
            f"fingerprints need a portable seed (int or str), got "
            f"{type(seed).__name__} — live generators and None have no "
            "canonical form"
        )
    return seed


def fingerprint_payload(
    plan: EvalPlan,
    model_digest: str,
    data_digest: str,
    analog: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The normalized dict a plan fingerprints through.

    In: model and dataset content digests, the resolved spec, the sample
    cap and seed (together: the seed schedule), the domain, the **eval
    dtype** (bitwise pairing holds only per dtype — a float32 result is
    not a float64 result), the analog conversion parameters when the
    model was crossbar-deployed, and the stopping rule. Out: every
    execution knob — ``backend`` (the form), ``n_workers``,
    ``chunk_samples``, ``data_block`` — because none of them may change
    the result (the repo-wide paired-seed contract), so none may split
    the cache.
    """
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "model": model_digest,
        "dataset": data_digest,
        "spec": spec_to_dict(plan.variation),
        "n_samples": plan.n_samples,
        "seed": _seed_value(plan.seed),
        "domain": plan.domain,
        "dtype": plan.dtype,
        "analog": analog,
        "stopping": stopping_payload(plan.stopping),
    }


def plan_fingerprint(plan: EvalPlan, model: Module, dataset: ArrayDataset) -> str:
    """SHA-256 hex fingerprint of the weight-domain evaluation ``plan``
    encodes. An analogized model has no weights left to digest: an analog
    job fingerprints through :func:`repro.store.jobs.materialize`, which
    digests the weights before ``analogize`` and hashes the analog
    parameters."""
    payload = fingerprint_payload(
        plan, weights_digest(model), dataset_digest(dataset)
    )
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
