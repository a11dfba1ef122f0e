"""Deterministic random-number management.

Every stochastic component in the library (variation sampling, data
generation, weight initialisation, RL exploration) draws from an explicit
:class:`numpy.random.Generator` rather than the global numpy state. This
makes Monte-Carlo experiments reproducible and lets independent components
be reseeded without interfering with each other.

String seeds are accepted everywhere an integer is: they are digested with
SHA-256 into an integer entropy word, so ``seed="chip-a"`` produces the
same stream in every process and on every platform. (Python's built-in
``hash`` is salted per process via ``PYTHONHASHSEED`` and must never be
used for seed derivation — the bug class the analog layer conversion once
suffered from.)
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

SeedLike = Union[int, str, np.random.Generator, None]


def _entropy_for(seed: Union[int, str]) -> int:
    """Process-stable integer entropy for an int or str seed."""
    if isinstance(seed, str):
        return int.from_bytes(hashlib.sha256(seed.encode()).digest()[:8], "little")
    return seed


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an integer or string seed, an existing generator (returned
    unchanged), or ``None`` for OS entropy. Centralising this conversion
    keeps call sites uniform: every public API that takes randomness
    accepts ``seed``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, str):
        seed = _entropy_for(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Split one seed into ``n`` statistically independent generators.

    Used by Monte-Carlo evaluation: sample ``i`` of a 250-sample run always
    sees the same stream regardless of evaluation order or batching. A
    :class:`numpy.random.Generator` seed consumes exactly one 63-bit draw
    from the stream — the property the paired-seed analog programming
    protocol counts on (see ``repro.evaluation.montecarlo``).
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    root = np.random.SeedSequence(
        _entropy_for(seed)
        if isinstance(seed, (int, str))
        else int(new_rng(seed).integers(2**63))
    )
    return [np.random.default_rng(s) for s in root.spawn(n)]

