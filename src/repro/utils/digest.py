"""Content digests and the canonical JSON they are keyed through.

``canonical_json`` is the one serialization a payload hashes through;
``weights_digest`` and ``dataset_digest`` identify a model and a split by
their array contents. The compensation fit memo and the result store's
plan fingerprints both key on these, so they live here, outside the
store package: importing them loads neither ``sqlite3`` nor the store.

No wall clock, no environment and no randomness may enter this module:
a digest computed on any machine must equal one computed from the same
inputs anywhere else.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import TYPE_CHECKING, Any, Dict, List

import numpy as np

if TYPE_CHECKING:
    from repro.data.dataset import ArrayDataset
    from repro.nn.module import Module


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


def weights_digest(model: "Module") -> str:
    """Content digest of a model's parameters.

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


def dataset_digest(dataset: "ArrayDataset") -> str:
    """Content digest of an evaluation split (images + labels)."""
    parts: List[bytes] = []
    for label, array in (("images", dataset.images), ("labels", dataset.labels)):
        array = np.ascontiguousarray(array)
        parts.append(f"{label}|{array.dtype.str}|{array.shape}|".encode("ascii"))
        parts.append(array.tobytes())
    return _digest(parts)
