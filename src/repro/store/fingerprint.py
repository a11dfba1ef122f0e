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
import json
import math
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.evaluation.plan import EvalPlan
from repro.evaluation.sequential import HalfWidthRule
from repro.nn.module import Module
from repro.variation.spec import to_dict as spec_to_dict

#: Bump when the payload layout changes; part of the hashed payload, so
#: fingerprints from different layouts can never collide silently.
#: v2: ``dtype`` joined the payload — a float32 evaluation is a different
#: logical result than a float64 one (unlike backend/workers/chunking,
#: which remain excluded).
FINGERPRINT_VERSION = 2

_JSONScalar = Union[None, bool, int, float, str]


def _normalize(value: Any) -> Any:
    """Recursively coerce ``value`` to canonical JSON-able primitives."""
    if isinstance(value, (np.integer, np.bool_)):
        value = value.item()
    elif isinstance(value, np.floating):
        value = float(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} has no canonical form")
        return value
    if isinstance(value, dict):
        normalized: Dict[str, Any] = {}
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"payload keys must be str, got {key!r}")
            normalized[key] = _normalize(value[key])
        return normalized
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    raise ValueError(
        f"{type(value).__name__} is not canonically serializable in a "
        "fingerprint payload"
    )


def canonical_json(payload: Any) -> str:
    """The one serialization a payload fingerprints through.

    Sorted keys, fixed separators, ASCII-only, NaN rejected — byte-equal
    output for semantically equal payloads regardless of construction
    order or numpy scalar types.
    """
    return json.dumps(
        _normalize(payload),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def _digest(parts: List[bytes]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
    return sha.hexdigest()


def weights_digest(model: Module) -> str:
    """Content digest of a model's parameters and buffers.

    Hashes names, shapes, dtypes and raw bytes in sorted-name order, so
    the digest identifies the deployed function — not the checkpoint path
    it was loaded from, and not the dict order ``state_dict`` happened to
    produce.
    """
    parts: List[bytes] = []
    state = model.state_dict()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        parts.append(
            f"{name}|{array.dtype.str}|{array.shape}|".encode("ascii")
        )
        parts.append(array.tobytes())
    return _digest(parts)


def dataset_digest(dataset: ArrayDataset) -> str:
    """Content digest of an evaluation split (images + labels)."""
    parts: List[bytes] = []
    for label, array in (("images", dataset.images), ("labels", dataset.labels)):
        array = np.ascontiguousarray(array)
        parts.append(f"{label}|{array.dtype.str}|{array.shape}|".encode("ascii"))
        parts.append(array.tobytes())
    return _digest(parts)


def stopping_payload(rule: object) -> Optional[Dict[str, Any]]:
    """Canonical form of a stopping rule (``None`` = fixed-S protocol).

    Anything other than ``None`` or a
    :class:`~repro.evaluation.sequential.HalfWidthRule` has no canonical
    form and is rejected.
    """
    if rule is None:
        return None
    if isinstance(rule, HalfWidthRule):
        return {
            "kind": "half_width",
            "tolerance": rule.tolerance,
            "confidence": rule.confidence,
            "method": rule.method,
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
    model was crossbar-deployed, and the stopping/CI params. Out: every
    execution knob — ``backend``, ``n_workers``, ``worker_vectorized``,
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


def plan_fingerprint(
    plan: EvalPlan,
    model: Module,
    dataset: ArrayDataset,
    analog: Optional[Dict[str, Any]] = None,
) -> str:
    """SHA-256 hex fingerprint of the logical evaluation ``plan`` encodes."""
    payload = fingerprint_payload(
        plan, weights_digest(model), dataset_digest(dataset), analog
    )
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
