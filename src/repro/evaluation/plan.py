"""Planning a Monte-Carlo evaluation: one ``EvalPlan`` drives every engine.

Historically ``MonteCarloEvaluator`` grew six near-duplicate engine bodies
(loop / vectorized / pool, each twice: weight-domain and analog), every one
re-implementing the paired-seed protocol, the sample chunking and the data
blocking on its own. This module factors the *decisions* out of the
*execution*: :func:`build_plan` resolves a variation spec, the model's
domain (weight vs analog), the execution form and worker count, the seed
schedule and the sample-chunking schedule into one immutable
:class:`EvalPlan`, and ``repro.evaluation.executor`` runs any plan
through one generic driver. The paired-seed contract lives in exactly
one place — the plan's ``draw_rngs`` schedule plus the model adapters'
per-stream consumption — instead of six.

Plan axes
---------

- **Domain / model adapter.** A model is either *weight-domain* (the
  injector perturbs ``Parameter.data``; plain and compensated models) or
  *analog* (variation applies at crossbar programming time). The adapter —
  *how a chunk of draws is applied* — is the only thing that differs, so
  analog evaluation is no longer a separate engine family.
- **Backend and workers: two independent decisions.** ``backend`` is
  the form a chunk runs in: ``loop`` (reference, one full sweep per
  draw) or ``vectorized`` (sample-stacked kernels, all draws of a chunk
  per data batch), granted when ``vectorized=True`` and the model has
  sample-aware kernels throughout. ``n_workers > 1`` runs that same form
  in every worker of a process pool, one chunk per task; otherwise the
  chunks run in-process. A pool is fed, shrunk and clamped by the same
  rules whatever the form (:func:`build_plan`).
- **Seed schedule.** Draw ``i`` always consumes the ``i``-th stream of
  ``spawn_rngs(seed, n_samples)`` regardless of backend, chunking or
  worker count; chunks are contiguous *slices* of that one stream list,
  which is what makes every run bitwise-reproducible and engine choice a
  pure performance knob.
- **Sample chunking.** Stacked execution materializes per-draw state
  (weight stacks or conductance planes) for a whole chunk at once;
  ``chunk_samples`` bounds that, so arbitrarily large ``n_samples`` stream
  through fixed memory with results bitwise identical to the unchunked
  run (per-draw results never depend on chunk boundaries). The chunk size
  is the caller's ``chunk_samples``, else :data:`DEFAULT_CHUNK_SAMPLES`,
  capped at ``n_samples``.
- **Data blocking.** One rule, :meth:`EvalPlan.images_per_pass`, sizes
  every pass. A weight-domain pass of S draws takes ``LOOP_BATCH // S``
  images (at least one): the per-draw loop takes :data:`LOOP_BATCH`, and
  a stacked chunk of up to :data:`LOOP_BATCH` draws, whose activations
  are S times larger, holds no more image-draws than the loop does. So
  the chunk bounds only the weight stacks. Analog plans alone carry a
  ``data_block``, and every analog pass, stacked or per-draw, takes it.
  Blocking never changes a result, read noise included: each tile's
  noise stream is consumed in row-major order, one ``(batch, out)`` draw
  per call, so the draws an image sees do not depend on where block
  boundaries fall.
- **Stopping rule.** ``n_samples`` is a cap, not necessarily the count: a
  plan built with a ``tolerance`` carries a
  :class:`~repro.evaluation.sequential.HalfWidthRule` that looks at the
  draw prefix every :data:`~repro.evaluation.sequential.LOOK_EVERY` draws
  of the seed schedule; the executor cuts the chunk holding the first
  satisfied look there. The looks belong to the rule, so the stop point
  is backend- and chunk-invariant and an adaptive run's draws are a
  bitwise prefix of the fixed-S run.
- **Eval dtype.** ``dtype`` selects the arithmetic precision of the
  evaluation itself: ``"float64"`` (the default, bit-identical to every
  historical run) or ``"float32"`` (half the memory traffic, roughly
  double the GEMM throughput). The paired-seed contract is stated *per
  dtype*: draws are always generated in float64 from the float32-rounded
  nominal and cast exactly once, so the seed schedule is dtype-invariant
  and all backends stay bitwise-equal to each other at the same dtype —
  but a float32 result is **not** a float64 result, so ``dtype`` is part
  of the store fingerprint (unlike backend/workers/chunking). The analog
  simulator models physical conductances in float64 only; ``float32``
  with an analog model is rejected at plan time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.evaluation.sequential import HalfWidthRule
from repro.evaluation.vectorized import sample_axis_blockers, supports_sample_axis
from repro.hardware.analog_layers import analog_layers, has_read_noise
from repro.nn.module import Module
from repro.utils.rng import spawn_rngs, SeedLike
from repro.variation.models import NoVariation, VariationModel
from repro.variation.spec import parse_spec, VariationLike

#: Stacked-chunk size when the caller sets no ``chunk_samples``. Only a
#: default: a pool plan shrinks it so every worker gets a chunk.
DEFAULT_CHUNK_SAMPLES = 16

#: Image-draws per weight-domain pass: the data batch of the per-draw
#: loop (and of every nominal, variation-free evaluation), which a stacked
#: chunk of S draws divides by S.
LOOP_BATCH = 256

#: Evaluation dtypes the plan may request. float64 is the historical
#: bit-exact protocol; float32 is the throughput policy (see module
#: docstring). Draws are generated in float64 under both.
EVAL_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class EvalPlan:
    """Everything an executor needs to run one Monte-Carlo evaluation.

    Immutable, model-free, pure data: the plan holds decisions (spec,
    backend, schedule, blocking), never live objects — executors build the
    model adapter themselves, so a plan pickles to any worker and every
    plan can be fingerprinted. Layer subsets are specs too (a ``LayerMap``
    holding the other layers at ``none``). ``deterministic`` plans
    short-circuit to a single nominal evaluation (no variation to sample).
    """

    variation: VariationModel
    n_samples: int
    seed: SeedLike
    domain: str  # "weight" | "analog"
    backend: str  # "loop" | "vectorized": the form every chunk runs in
    deterministic: bool = False
    #: Images per pass of an analog plan, stacked or per-draw; ``None`` on
    #: weight-domain plans, whose passes :meth:`images_per_pass` sizes.
    data_block: Optional[int] = None
    chunk_samples: int = 16
    #: Above one, a process pool of this size runs the chunks, each
    #: worker in the plan's ``backend`` form; otherwise they run
    #: in-process.
    n_workers: int = 0
    #: Arithmetic precision of the evaluation ("float64" | "float32").
    #: Part of the *logical* evaluation — float32 results are not float64
    #: results — so unlike the execution knobs above it enters the store
    #: fingerprint.
    dtype: str = "float64"
    #: Sequential early stopping, consulted at the rule's own looks
    #: (every ``LOOK_EVERY`` draws, whatever the chunking); ``None`` runs
    #: the full ``n_samples`` cap (the paper's fixed-S protocol).
    stopping: Optional[HalfWidthRule] = None
    #: Why the plan differs from the request — set when a
    #: ``vectorized=True`` request fell back because the model is not
    #: sample-aware (naming the blocking modules), or when ``n_workers``
    #: was clamped to the chunk count. Purely diagnostic: it never
    #: changes execution and is excluded from store fingerprints (which
    #: hash only the logical evaluation).
    backend_reason: Optional[str] = None

    def images_per_pass(self, n_draws: int) -> int:
        """Images per forward pass that ``n_draws`` draws share.

        An analog plan's ``data_block``, whatever ``n_draws`` is. A
        weight-domain pass takes ``LOOP_BATCH // n_draws`` images, at least
        one, so a stacked pass of up to :data:`LOOP_BATCH` draws holds no
        more image-draws than the per-draw loop. Any blocking gives the
        same result (module docstring): this is a memory and speed
        choice.
        """
        if self.data_block is not None:
            return self.data_block
        return max(1, LOOP_BATCH // n_draws)

    def draw_rngs(self) -> List[np.random.Generator]:
        """The seed schedule: stream ``i`` feeds draw ``i``, everywhere."""
        return spawn_rngs(self.seed, self.n_samples)

    def chunks(self) -> Tuple[Tuple[int, int], ...]:
        """Contiguous ``[start, stop)`` sample chunks: one stacked pass
        and one pool task each. The stopping rule may cut a chunk short at
        one of its looks; the chunking never moves a look."""
        return tuple(
            (start, min(start + self.chunk_samples, self.n_samples))
            for start in range(0, self.n_samples, self.chunk_samples)
        )


def build_plan(
    model: Module,
    variation: "VariationLike",
    *,
    n_samples: int,
    seed: SeedLike,
    vectorized: bool = False,
    n_workers: int = 0,
    data_block: int = 64,
    chunk_samples: Optional[int] = None,
    dtype: str = "float64",
    tolerance: Optional[float] = None,
    min_samples: Optional[int] = None,
) -> EvalPlan:
    """Resolve one Monte-Carlo evaluation into an :class:`EvalPlan`.

    ``model`` must already be in the mode it will be evaluated in (the
    evaluator forces eval mode first). Stacked-form eligibility is
    ``supports_sample_axis``: every module's ``sample_aware`` class
    constant.

    ``vectorized`` and ``n_workers`` are independent: the first picks the
    form, the second how many processes run it. Pool tasks are whole
    chunks, so a *defaulted* chunk size first shrinks until every
    requested worker has a chunk (chunking is bitwise-neutral, adaptive
    plans included). When an explicit ``chunk_samples`` pins the chunks,
    ``n_workers`` is clamped to the number of chunks instead (extra
    workers would pay the start-up cost and then receive no chunk), with
    the clamp recorded in ``backend_reason``. ``dtype`` picks the
    evaluation precision (see module docstring). ``data_block`` reaches
    analog plans only: a weight-domain plan carries none, because its
    passes follow :meth:`EvalPlan.images_per_pass`.

    Sequential stopping: a ``tolerance`` builds a
    :class:`~repro.evaluation.sequential.HalfWidthRule` (95% CLT
    interval) with ``min_samples``, and ``n_samples`` becomes the draw
    cap rather than the exact count.
    """
    for name, value in (("n_samples", n_samples), ("data_block", data_block),
                        ("chunk_samples", chunk_samples)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if dtype not in EVAL_DTYPES:
        raise ValueError(
            f"dtype must be one of {EVAL_DTYPES}, got {dtype!r}"
        )
    stopping: Optional[HalfWidthRule] = None
    if tolerance is not None:
        if min_samples is None:
            stopping = HalfWidthRule(tolerance=tolerance)
        else:
            stopping = HalfWidthRule(tolerance=tolerance, min_samples=min_samples)
    resolved = parse_spec(variation)
    analog = bool(analog_layers(model))
    domain = "analog" if analog else "weight"
    if analog and dtype != "float64":
        raise ValueError(
            "dtype='float32' applies to weight-domain evaluation only: the "
            "crossbar simulator models physical conductances and converter "
            "chains in float64 — analog plans must keep dtype='float64'"
        )

    no_variation = isinstance(resolved, NoVariation) or resolved.magnitude == 0.0
    deterministic = no_variation and (not analog or not has_read_noise(model))

    chunk = min(
        DEFAULT_CHUNK_SAMPLES if chunk_samples is None else chunk_samples,
        n_samples,
    )
    n_chunks = -(-n_samples // chunk)  # ceil division

    reasons: List[str] = []
    backend = "loop"
    if vectorized and supports_sample_axis(model):
        backend = "vectorized"
    elif vectorized:
        reasons.append(
            "vectorized execution requested but fell back to the loop "
            "backend: module(s) without a truthy sample_aware declaration: "
            + ", ".join(sample_axis_blockers(model))
        )
    if 1 < n_workers and n_chunks < n_workers and chunk_samples is None:
        # The chunk size was only a default: shrink it so every requested
        # worker gets a whole chunk (chunking is bitwise-neutral, so this
        # is a pure scheduling adjustment).
        chunk = -(-n_samples // n_workers)
        n_chunks = -(-n_samples // chunk)
    if n_workers > n_chunks:
        # Extra workers would start, pay the initializer cost and receive
        # no chunk: every pool task is one whole chunk.
        reasons.append(
            f"n_workers clamped from {n_workers} to {n_chunks}: the "
            f"schedule has only {n_chunks} chunk(s) of "
            f"{chunk} sample(s) to dispatch"
        )
        n_workers = n_chunks

    return EvalPlan(
        variation=resolved,
        n_samples=n_samples,
        seed=seed,
        domain=domain,
        backend=backend,
        deterministic=deterministic,
        data_block=data_block if analog else None,
        chunk_samples=chunk,
        n_workers=n_workers,
        dtype=dtype,
        stopping=stopping,
        backend_reason="; ".join(reasons) if reasons else None,
    )
