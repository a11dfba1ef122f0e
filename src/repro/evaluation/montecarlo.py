"""Monte-Carlo accuracy evaluation under weight variations.

The paper's protocol: "the network weights were sampled 250 times according
to the variation model and inference accuracy was evaluated for each
sample". Sample count is configurable (fast benchmark modes use fewer);
sample ``i`` always draws from the same spawned rng stream, so results are
reproducible and paired across configurations sharing a seed.

Since the plan/executor refactor the evaluator itself is thin: it
normalizes the variation spec, forces eval mode, builds an
:class:`~repro.evaluation.plan.EvalPlan` (domain, form, workers, seed
schedule, sample-chunk schedule, data blocking) and hands it to
:func:`repro.evaluation.executor.execute`. Two independent knobs choose
the execution:

- ``vectorized`` picks the **form** a chunk runs in: the per-draw
  **loop** (default; one full-dataset forward pass per sample, the
  semantic ground truth) or the **vectorized** stacked kernels (all
  samples of a chunk per data batch), falling back to the loop when the
  model is not sample-aware;
- ``n_workers > 1`` runs that same form in every worker of a process
  **pool**, one chunk per task; otherwise the chunks run in-process.

Every (form, workers) cell shares one paired-seed contract, stated once
in ``plan``/``executor``: a given seed produces bitwise-identical
per-draw state everywhere, so ``vectorized``, ``n_workers`` and
``chunk_samples`` are pure performance knobs. Weight-domain and analog
(crossbar-deployed) models run through the same forms; only the *model
adapter* — how a draw or a chunk of draws is applied — differs (see
``repro.evaluation.executor``).

Memory-bounded streaming: stacked execution materializes per-draw state
(weight stacks / conductance planes) for ``chunk_samples`` draws at a
time, so arbitrarily large sample counts stream through fixed memory with
results bitwise identical to the unchunked run. The chunk size is
``chunk_samples``, or the plan's default when unset.

Every ``variation`` argument accepts a full spec — a ``VariationModel``, a
grammar string (``"lognormal:0.5+quant:4"``), or a spec dict (see
``repro.variation.spec``). Per-layer scenarios, Fig. 9's layer subsets
included (``repro.evaluation.layer_sweep.tail_spec``), are ``LayerMap``
specs, so they run on weight-domain and analog models alike.

Sequential (adaptive) evaluation: the evaluator's ``tolerance`` turns
``n_samples`` into a cap and stops once the 95% confidence interval on
mean accuracy is tighter than requested (see
``repro.evaluation.sequential``). The adaptive run's draws are a bitwise
prefix of the fixed-S run on the same seed, on every backend. A sweep —
a magnitude grid (Figs. 2 and 7: ``scale_to`` per point) or
``repro.evaluation.layer_sweep.layer_sweep`` — is one :meth:`evaluate`
call per point, so each point stops on its own rule and runs on the
evaluator's form and workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.evaluation.executor import execute
from repro.evaluation.plan import build_plan
from repro.evaluation.sequential import clt_interval, CONFIDENCE
from repro.nn.module import Module
from repro.utils.rng import SeedLike
from repro.variation.spec import VariationLike


@dataclass
class MCResult:
    """Accuracy distribution over variation samples.

    ``accuracies`` is always in seed-schedule order — entry ``i`` is the
    draw from spawned stream ``i`` — regardless of backend, chunking, or
    the order pool chunks completed in, so every downstream statistic
    (mean, std, confidence interval) is backend-invariant. The interval
    is the 95% CLT one the stopping rule decides on
    (``repro.evaluation.sequential.clt_interval``); adaptive runs that
    stop before their cap set ``stopped_early``.
    """

    accuracies: List[float] = field(default_factory=list)
    #: True when a stopping rule cut the run short of its ``n_samples``
    #: cap.
    stopped_early: bool = False

    def _require_samples(self) -> None:
        if not self.accuracies:
            raise ValueError(
                "MCResult holds no accuracy samples; evaluate() fills it — "
                "statistics of an empty result are undefined"
            )

    @property
    def n_samples_used(self) -> int:
        """Number of variation draws actually evaluated."""
        return len(self.accuracies)

    @property
    def mean(self) -> float:
        self._require_samples()
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        self._require_samples()
        return float(np.std(self.accuracies))

    @property
    def min(self) -> float:
        self._require_samples()
        return float(np.min(self.accuracies))

    @property
    def max(self) -> float:
        self._require_samples()
        return float(np.max(self.accuracies))

    def _interval(self) -> Tuple[float, float]:
        self._require_samples()
        return clt_interval(self.accuracies)

    @property
    def ci_low(self) -> float:
        """Lower bound of the confidence interval on mean accuracy."""
        return self._interval()[0]

    @property
    def ci_high(self) -> float:
        """Upper bound of the confidence interval on mean accuracy."""
        return self._interval()[1]

    @property
    def ci_half_width(self) -> float:
        """Half the confidence-interval width — what ``tolerance`` bounds."""
        low, high = self._interval()
        return (high - low) / 2.0

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serializable payload; inverse of :meth:`from_dict`.

        ``accuracies`` is coerced element-by-element to plain ``float``
        (numpy scalars and arrays become lists), so the payload survives
        ``json.dumps`` and the round-trip restores the exact per-draw
        values — the property the result store's bitwise resume/diff
        guarantees rest on. ``confidence`` and ``ci_method`` are the
        constant 95% CLT interval, kept so stored payloads keep their
        keys and bytes.
        """
        return {
            "accuracies": [float(a) for a in np.asarray(self.accuracies).ravel()],
            "stopped_early": bool(self.stopped_early),
            "confidence": CONFIDENCE,
            "ci_method": "clt",
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MCResult":
        """Rebuild a result from a :meth:`to_dict` payload.

        A payload that asks for any interval but the 95% CLT one is
        rejected: no result could report it.
        """
        unknown = sorted(
            set(payload) - {"accuracies", "stopped_early", "confidence", "ci_method"}
        )
        if unknown:
            raise ValueError(f"unknown MCResult fields: {unknown}")
        interval = (
            payload.get("confidence", CONFIDENCE),
            payload.get("ci_method", "clt"),
        )
        if interval != (CONFIDENCE, "clt"):
            raise ValueError(
                f"MCResult reports a 95% CLT interval, not {interval}"
            )
        return cls(
            accuracies=[float(a) for a in payload.get("accuracies", [])],
            stopped_early=bool(payload.get("stopped_early", False)),
        )

    def __repr__(self) -> str:
        if not self.accuracies:
            return "MCResult(empty)"
        early = ", stopped_early" if self.stopped_early else ""
        return (
            f"MCResult(mean={self.mean:.4f}, std={self.std:.4f}, "
            f"n={len(self.accuracies)}{early})"
        )


class MonteCarloEvaluator:
    """Evaluate a model's accuracy distribution under a variation model.

    Parameters
    ----------
    dataset:
        Evaluation split.
    n_samples:
        Number of independent weight samples (paper: 250).
    seed:
        Root seed; sample ``i`` uses the i-th spawned stream.
    vectorized:
        Evaluate all samples of a chunk per data batch in one
        stacked-weight pass when the model supports it (see module
        docstring); the per-draw loop otherwise.
    n_workers:
        When > 1, dispatch the sample chunks to a process pool of this
        size; every worker runs the form ``vectorized`` picked.
    chunk_samples:
        Samples evaluated per stacked pass. ``None`` uses
        :data:`~repro.evaluation.plan.DEFAULT_CHUNK_SAMPLES`, which a
        pool plan may shrink so every worker gets a chunk. Results are
        bitwise independent of this knob, adaptive runs included: the
        stopping rule looks every
        :data:`~repro.evaluation.sequential.LOOK_EVERY` draws whatever
        the chunking.
    data_block:
        Images per pass of an analog sweep, stacked or per-draw. Analog
        sweeps alone use it: a weight-domain pass of S draws takes
        ``LOOP_BATCH // S`` images (:mod:`repro.evaluation.plan`), so its
        plans carry no data block. Results never depend on it, read noise
        included.
    tolerance:
        CI half-width target for sequential stopping; ``None`` (the
        default) runs the paper's fixed-S protocol. ``n_samples`` becomes
        a cap when set.
    min_samples:
        Lower draw bound before a stopping rule may fire; ``None`` uses
        the :class:`~repro.evaluation.sequential.HalfWidthRule` default.
        The rule's interval is the 95% CLT interval results report.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        n_samples: int = 250,
        seed: SeedLike = 1234,
        vectorized: bool = False,
        n_workers: int = 0,
        data_block: int = 64,
        chunk_samples: Optional[int] = None,
        tolerance: Optional[float] = None,
        min_samples: Optional[int] = None,
        dtype: str = "float64",
    ) -> None:
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        if n_workers < 0:
            raise ValueError(f"n_workers must be non-negative, got {n_workers}")
        if data_block <= 0:
            raise ValueError(f"data_block must be positive, got {data_block}")
        if chunk_samples is not None and chunk_samples <= 0:
            raise ValueError(
                f"chunk_samples must be positive, got {chunk_samples}"
            )
        if tolerance is not None and tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if min_samples is not None and min_samples < 1:
            raise ValueError(
                f"min_samples must be at least 1, got {min_samples}"
            )
        self.dataset = dataset
        self.n_samples = n_samples
        self.seed = seed
        self.vectorized = vectorized
        self.n_workers = n_workers
        self.data_block = data_block
        self.chunk_samples = chunk_samples
        self.tolerance = tolerance
        self.min_samples = min_samples
        self.dtype = dtype

    def plan(self, model: Module, variation: "VariationLike"):
        """The :class:`~repro.evaluation.plan.EvalPlan` this evaluator
        would execute for ``model``/``variation`` — the introspectable
        form of :meth:`evaluate`'s dispatch. The model must be in the mode
        it will be evaluated in (``evaluate`` forces eval mode). A pure
        function of its inputs."""
        return build_plan(
            model,
            variation,
            n_samples=self.n_samples,
            seed=self.seed,
            vectorized=self.vectorized,
            n_workers=self.n_workers,
            data_block=self.data_block,
            chunk_samples=self.chunk_samples,
            tolerance=self.tolerance,
            min_samples=self.min_samples,
            dtype=self.dtype,
        )

    def evaluate(self, model: Module, variation: "VariationLike") -> MCResult:
        """Accuracy over up to ``n_samples`` draws of ``variation``.

        ``variation`` is any spec form (model / grammar string / dict);
        a ``LayerMap`` restricts injection to a layer subset (Fig. 9).
        A ``NoVariation`` model short-circuits to a single deterministic
        evaluation. The form and the worker count follow the module
        docstring; every choice returns paired results for a seed.

        The evaluator's ``tolerance`` enables sequential stopping: draws
        run until, at one of the rule's looks, the confidence interval on
        mean accuracy has half-width at most ``tolerance``, or until the
        ``n_samples`` cap is reached. The draws evaluated are a bitwise
        prefix of the fixed-S run on the same seed.

        Monte-Carlo evaluation is an eval-mode protocol, so the model is
        switched to eval mode up front (and restored afterwards), whatever
        mode the caller left it in.
        """
        was_training = model.training
        model.eval()
        try:
            plan = self.plan(model, variation)
            return execute(plan, model, self.dataset)
        finally:
            model.train(was_training)
