"""Sequential (adaptive) Monte-Carlo statistics: stop when the answer is known.

The paper's protocol fixes 250 variation draws per configuration, but most
configurations in a sweep are either saturated (every draw near the clean
accuracy) or collapsed (every draw near chance) long before draw 250.
Sequential evaluation maintains a confidence interval on the *mean
accuracy over draws* and stops once the interval is tighter than a
requested tolerance. The rule owns its decision points: it looks at the
draw prefix after every :data:`LOOK_EVERY` draws of the one seed
schedule, and nowhere else, so chunking, pooling and resuming only
decide how the draws are computed, never where a run stops. That is what
preserves the **paired-prefix contract**: an adaptive run's first ``k``
draws are bitwise identical to the first ``k`` draws of the fixed-S run
on the same seed, because both consume streams ``0..k-1`` of
``spawn_rngs(seed, S)`` in order and the stop decision never changes
what any draw computes.

This module is pure statistics — no numpy, no model or executor imports —
so the stopping layer is trivially deterministic and strictly typed:

- interval estimators on a list of per-draw accuracies:
  :func:`clt_interval` (normal interval on the draw means, sample std) and
  :func:`wilson_interval` (Wilson score interval treating the mean as a
  proportion over ``n`` draws — conservative for draw means, since any
  ``[0, 1]``-valued variable with mean ``p`` has variance at most
  ``p (1 - p)``);
- :class:`HalfWidthRule`, the one stopping rule: stop at the first look
  where the CI half-width is at most ``tolerance``, never below
  ``min_samples`` draws. A plan without a rule runs the paper's fixed-S
  protocol to its ``n_samples`` cap;
- :func:`allocate_draws`, the sweep-level scheduler: one shared draw
  budget round-robined chunk-by-chunk to the grid points with the widest
  current intervals, so saturated points stop early and the budget
  concentrates where the answer is still unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

#: Supported confidence-interval estimators (see the module docstring).
CI_METHODS = ("clt", "wilson")

#: The rule's look schedule: it reads the draw prefix after every
#: ``LOOK_EVERY`` draws, whatever the chunk size. A different schedule
#: stops adaptive runs elsewhere, so changing it needs a store
#: ``FINGERPRINT_VERSION`` bump. It equals the default chunk, so a
#: default-chunk run looks exactly at its chunk boundaries.
LOOK_EVERY = 16


def z_score(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("cannot compute an interval over zero draws")
    return math.fsum(values) / len(values)


def clt_interval(
    accuracies: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Normal (CLT) interval on the mean of the per-draw accuracies.

    Uses the sample standard deviation (``ddof=1``) of the draw means. A
    single draw carries no spread information, so ``n == 1`` returns the
    degenerate interval ``(mean, mean)`` — correct for deterministic
    evaluations and harmless for stopping rules, which never fire below
    two draws.
    """
    mean = _mean(accuracies)
    n = len(accuracies)
    if n == 1:
        return (mean, mean)
    variance = math.fsum((a - mean) ** 2 for a in accuracies) / (n - 1)
    half = z_score(confidence) * math.sqrt(variance / n)
    return (mean - half, mean + half)


def wilson_interval(
    accuracies: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval treating mean accuracy as a proportion.

    Models the ``n`` draw means as ``n`` trials with success probability
    ``p``; because a ``[0, 1]``-valued draw mean has variance at most
    ``p (1 - p)``, the Wilson interval is a conservative (never
    anti-conservative in width) envelope for the true sampling spread.
    Unlike the CLT interval it is well-behaved at the boundaries: it never
    collapses to zero width at ``p ∈ {0, 1}`` for finite ``n``, so a
    saturated configuration still needs a few draws before it can stop.
    """
    p = _mean(accuracies)
    n = len(accuracies)
    z = z_score(confidence)
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def interval(
    accuracies: Sequence[float],
    confidence: float = 0.95,
    method: str = "clt",
) -> Tuple[float, float]:
    """Dispatch to the named interval estimator (see :data:`CI_METHODS`)."""
    if method == "clt":
        return clt_interval(accuracies, confidence)
    if method == "wilson":
        return wilson_interval(accuracies, confidence)
    raise ValueError(f"unknown CI method {method!r}; choose from {CI_METHODS}")


def half_width(
    accuracies: Sequence[float],
    confidence: float = 0.95,
    method: str = "clt",
) -> float:
    """Half the width of the chosen confidence interval."""
    low, high = interval(accuracies, confidence, method)
    return (high - low) / 2.0


# ---------------------------------------------------------------------------
# Stopping rule
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HalfWidthRule:
    """Stop once the CI half-width on mean accuracy is ≤ ``tolerance``.

    The rule is consulted at its looks only — every :data:`LOOK_EVERY`
    draws of the seed schedule, on the prefix of draws evaluated so far —
    so every form, worker count and chunking asks the same questions at
    the same draw counts, and the stop point is engine- and
    chunk-invariant. ``method`` selects the interval
    estimator (:data:`CI_METHODS`), ``confidence`` its level. The rule
    never fires below ``min_samples`` draws, nor below two (one draw has
    no spread); the upper bound is the plan's ``n_samples`` cap, enforced
    by the executor simply running out of schedule.
    """

    tolerance: float
    confidence: float = 0.95
    method: str = "clt"
    min_samples: int = 4

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.method not in CI_METHODS:
            raise ValueError(
                f"unknown CI method {self.method!r}; choose from {CI_METHODS}"
            )
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be at least 1, got {self.min_samples}"
            )

    def satisfied(self, accuracies: Sequence[float]) -> bool:
        """True when the evaluation may stop after these draws."""
        if len(accuracies) < max(self.min_samples, 2):
            return False
        return (
            half_width(accuracies, self.confidence, self.method)
            <= self.tolerance
        )

    def stop_point(
        self, accuracies: Sequence[float], after: int
    ) -> Optional[int]:
        """The first look past draw ``after`` at which the prefix of
        ``accuracies`` satisfies the rule, or ``None``.

        The executor asks this once per landed chunk, with ``after`` the
        chunk's start, and cuts the chunk at the answer.
        """
        first = (after // LOOK_EVERY + 1) * LOOK_EVERY
        for look in range(first, len(accuracies) + 1, LOOK_EVERY):
            if self.satisfied(accuracies[:look]):
                return look
        return None


# ---------------------------------------------------------------------------
# Sweep-level draw allocation
# ---------------------------------------------------------------------------
class SequentialPoint(Protocol):
    """What :func:`allocate_draws` needs from one grid point's evaluation."""

    @property
    def accuracies(self) -> List[float]:
        """Per-draw accuracies evaluated so far (seed-schedule order)."""
        ...

    @property
    def done(self) -> bool:
        """True when the point stopped or ran out of schedule."""
        ...

    def run_chunk(self) -> int:
        """Evaluate the next chunk; returns the number of draws it kept."""
        ...


def allocate_draws(
    points: Sequence[SequentialPoint],
    budget: int,
    width: Callable[[Sequence[float]], float],
    min_prime: int = 2,
) -> int:
    """Round-robin a shared draw budget to the widest-interval points.

    Two phases, both deterministic:

    1. **Priming** — in index order, every point is run until it holds at
       least ``min_prime`` draws (or is done), *regardless of budget*: a
       point with fewer than two draws has no measurable interval, so it
       could never compete for draws and would silently starve.
    2. **Allocation** — while budget remains and any point is still
       active, the point with the widest current interval (ties broken by
       lowest index) receives one more chunk.

    The budget is therefore a soft target: the total can exceed it by the
    priming draws plus at most one chunk. Each point's draws are a
    contiguous prefix of its own seed schedule, so per-point results keep
    the paired-prefix contract no matter how the budget is interleaved.
    Returns the total number of draws consumed.
    """
    if budget < 0:
        raise ValueError(f"draw budget must be non-negative, got {budget}")
    spent = 0
    for point in points:
        while not point.done and len(point.accuracies) < max(min_prime, 1):
            spent += point.run_chunk()
    while spent < budget:
        active = [(i, p) for i, p in enumerate(points) if not p.done]
        if not active:
            break
        _, widest = max(
            active, key=lambda pair: (width(pair[1].accuracies), -pair[0])
        )
        spent += widest.run_chunk()
    return spent
