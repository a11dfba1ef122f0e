"""Configuration dataclasses for the CorrectNet pipeline.

Every stage (base training, candidate selection, RL search, compensation
training, evaluation) is driven by one of these plain dataclasses so
experiments are declarative and serializable. ``fast_pipeline_config``
returns settings sized for CI / benchmark runs; the paper-scale settings
are the dataclass defaults.

The variation scenario is part of the config: ``PipelineConfig.variation``
holds a variation spec (a :class:`~repro.variation.models.VariationModel`,
a grammar string like ``"lognormal:0.5+quant:4"``, or a spec dict — all
normalized to a model at construction). ``None`` keeps the paper's default
``LogNormalVariation(sigma)``. :meth:`PipelineConfig.to_dict` /
:meth:`PipelineConfig.from_dict` round-trip the whole config — spec
included — through plain JSON-able dicts. :func:`make_evaluator` is the
one place an :class:`EvalConfig` becomes a Monte-Carlo evaluator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.variation.models import LogNormalVariation, VariationModel

if TYPE_CHECKING:
    from repro.data.dataset import ArrayDataset
    from repro.evaluation.montecarlo import MonteCarloEvaluator


@dataclass
class TrainConfig:
    """Base (Lipschitz-regularized) training stage: the paper's Lipschitz
    target k = 1 (:func:`~repro.lipschitz.bounds.lambda_bound`) and a
    gradient-norm clip of :data:`~repro.optim.optimizers.GRAD_CLIP`."""

    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    beta: float = 1e-3  # regularization weight of eq. (11)
    seed: int = 0


@dataclass
class CompensationConfig:
    """Compensation training stage (Section III-B): batches of 32, each
    against one fresh draw of the deployment variation."""

    epochs: int = 10
    lr: float = 1e-3
    seed: int = 0


@dataclass
class RLConfig:
    """REINFORCE search stage (Fig. 6, eq. 12)."""

    episodes: int = 30
    hidden_size: int = 32
    ratio_choices: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
    overhead_limits: Tuple[float, ...] = (0.01, 0.02, 0.03)  # paper: 1%, 2%, 3%
    seed: int = 0


@dataclass
class EvalConfig:
    """Monte-Carlo evaluation protocol."""

    n_samples: int = 250  # paper protocol
    search_samples: int = 10  # cheaper estimate inside the RL loop
    seed: int = 1234
    max_candidates: Optional[int] = None
    # Stacked-chunk size: draws evaluated per stacked pass. Bitwise-neutral
    # (chunking never changes results), purely a peak-memory/locality knob.
    # None leaves it to the planner (see repro.evaluation.plan).
    chunk_samples: Optional[int] = None
    # Sequential (adaptive) stopping: a CI half-width target turns
    # n_samples into a cap (see repro.evaluation.sequential). None keeps
    # the paper's fixed-S protocol.
    tolerance: Optional[float] = None
    # Eval dtype policy ("float64" | "float32"): float32 halves memory
    # traffic and roughly doubles GEMM throughput for weight-domain
    # evaluation. Paired-seed bitwise equality holds per dtype in every
    # form, but float32 results are NOT float64 results — the store
    # fingerprint includes the dtype.
    dtype: str = "float64"
    # Opt-in result store (see repro.store): when set, the pipeline's
    # full-protocol evaluations go through the fingerprinted cache at this
    # sqlite path — a repeated evaluation of identical logical inputs
    # becomes a lookup instead of a Monte-Carlo run. None = evaluate
    # directly, no store file involved.
    store_path: Optional[str] = None


@dataclass
class PipelineConfig:
    """Everything the end-to-end CorrectNet run needs."""

    sigma: float = 0.5  # paper's headline variation level
    # Variation scenario: a spec (model / grammar string / dict), or None
    # for the paper's LogNormalVariation(sigma). Normalized to a model in
    # __post_init__ so two configs built from equivalent forms compare
    # equal and serialize identically.
    variation: Optional[Union[VariationModel, str, Dict]] = None
    train: TrainConfig = field(default_factory=TrainConfig)
    compensation: CompensationConfig = field(default_factory=CompensationConfig)
    rl: RLConfig = field(default_factory=RLConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        if self.variation is not None and not isinstance(
            self.variation, VariationModel
        ):
            from repro.variation.spec import parse_spec

            self.variation = parse_spec(self.variation)

    def resolved_variation(self) -> VariationModel:
        """The scenario this config describes (spec, or log-normal default)."""
        if self.variation is None:
            return LogNormalVariation(self.sigma)
        return self.variation

    def to_dict(self) -> Dict:
        """JSON-serializable payload; inverse of :meth:`from_dict`."""
        from repro.variation.spec import to_dict as spec_to_dict

        return {
            "sigma": self.sigma,
            "variation": (
                None if self.variation is None else spec_to_dict(self.variation)
            ),
            "train": dataclasses.asdict(self.train),
            "compensation": dataclasses.asdict(self.compensation),
            "rl": dataclasses.asdict(self.rl),
            "eval": dataclasses.asdict(self.eval),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineConfig":
        """Rebuild a config (e.g. from a JSON experiment record) such that
        ``PipelineConfig.from_dict(cfg.to_dict()) == cfg``."""
        rl_kwargs = dict(payload.get("rl", {}))
        for key in ("ratio_choices", "overhead_limits"):
            if key in rl_kwargs:
                rl_kwargs[key] = tuple(rl_kwargs[key])
        return cls(
            sigma=payload.get("sigma", 0.5),
            variation=payload.get("variation"),
            train=TrainConfig(**payload.get("train", {})),
            compensation=CompensationConfig(**payload.get("compensation", {})),
            rl=RLConfig(**rl_kwargs),
            eval=EvalConfig(**payload.get("eval", {})),
        )


def make_evaluator(
    config: EvalConfig, dataset: "ArrayDataset", n_samples: int
) -> "MonteCarloEvaluator":
    """The Monte-Carlo evaluator ``config`` describes, over ``dataset``.

    ``n_samples`` is the draw cap of the stage asking (the full protocol,
    or the RL search's cheaper estimate). The evaluator is always the
    in-process vectorized one: every chunk runs stacked, and models
    without sample-aware kernels fall back to the per-draw loop
    (``repro.evaluation.executor``; bitwise-neutral).
    """
    from repro.evaluation.montecarlo import MonteCarloEvaluator

    return MonteCarloEvaluator(
        dataset,
        n_samples=n_samples,
        seed=config.seed,
        vectorized=True,
        chunk_samples=config.chunk_samples,
        tolerance=config.tolerance,
        dtype=config.dtype,
    )


def fast_pipeline_config(
    sigma: float = 0.5,
    seed: int = 0,
    variation: Optional[Union[VariationModel, str, Dict]] = None,
) -> PipelineConfig:
    """Reduced settings for CI and the benchmark harness's fast mode."""
    return PipelineConfig(
        sigma=sigma,
        variation=variation,
        train=TrainConfig(epochs=20, batch_size=32, lr=3e-3, beta=1.0, seed=seed),
        compensation=CompensationConfig(epochs=10, lr=3e-3, seed=seed),
        # Small scaled-down models have coarser overhead granularity than
        # the paper's full-size nets (its own LeNet rows report 3.5-5%), so
        # the fast preset widens the limits beyond the paper's 1/2/3%.
        rl=RLConfig(episodes=8, overhead_limits=(0.02, 0.06), seed=seed),
        eval=EvalConfig(n_samples=25, search_samples=5, seed=seed + 1234),
    )
