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

- :func:`clt_interval`, the one interval: a 95% normal (CLT) interval on
  the mean of the per-draw accuracies, with their sample std. Results
  report it and the rule decides on it;
- :class:`HalfWidthRule`, the one stopping rule: stop at the first look
  where the interval's half-width is at most ``tolerance``, never below
  ``min_samples`` draws. A plan without a rule runs the paper's fixed-S
  protocol to its ``n_samples`` cap.

A sweep needs nothing more: each of its points is one adaptive
evaluation with its own rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence, Tuple

#: The rule's look schedule: it reads the draw prefix after every
#: ``LOOK_EVERY`` draws, whatever the chunk size. A different schedule
#: stops adaptive runs elsewhere, so changing it needs a store
#: ``FINGERPRINT_VERSION`` bump. It equals the default chunk, so a
#: default-chunk run looks exactly at its chunk boundaries.
LOOK_EVERY = 16

#: The level of every interval. Stored results and stopping payloads
#: write it, and the ``"clt"`` method, as constants, so their keys and
#: bytes stay stable.
CONFIDENCE = 0.95

#: The two-sided standard-normal quantile at :data:`CONFIDENCE`.
Z_SCORE = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2.0)


def clt_interval(accuracies: Sequence[float]) -> Tuple[float, float]:
    """95% normal (CLT) interval on the mean of the per-draw accuracies.

    Uses the sample standard deviation (``ddof=1``) of the draw means. A
    single draw carries no spread information, so ``n == 1`` returns the
    degenerate interval ``(mean, mean)`` — correct for deterministic
    evaluations and harmless for the stopping rule, which never fires
    below two draws.
    """
    if not accuracies:
        raise ValueError("cannot compute an interval over zero draws")
    n = len(accuracies)
    mean = math.fsum(accuracies) / n
    if n == 1:
        return (mean, mean)
    variance = math.fsum((a - mean) ** 2 for a in accuracies) / (n - 1)
    half = Z_SCORE * math.sqrt(variance / n)
    return (mean - half, mean + half)


def half_width(accuracies: Sequence[float]) -> float:
    """Half the width of :func:`clt_interval`."""
    low, high = clt_interval(accuracies)
    return (high - low) / 2.0


@dataclass(frozen=True)
class HalfWidthRule:
    """Stop once the CI half-width on mean accuracy is ≤ ``tolerance``.

    The rule is consulted at its looks only — every :data:`LOOK_EVERY`
    draws of the seed schedule, on the prefix of draws evaluated so far —
    so every form, worker count and chunking asks the same questions at
    the same draw counts, and the stop point is engine- and
    chunk-invariant. The interval is :func:`clt_interval`. The rule never
    fires below ``min_samples`` draws, nor below two (one draw has no
    spread); the upper bound is the plan's ``n_samples`` cap, enforced by
    the executor simply running out of schedule.
    """

    tolerance: float
    min_samples: int = 4

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be at least 1, got {self.min_samples}"
            )

    def satisfied(self, accuracies: Sequence[float]) -> bool:
        """True when the evaluation may stop after these draws."""
        if len(accuracies) < max(self.min_samples, 2):
            return False
        return half_width(accuracies) <= self.tolerance

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
