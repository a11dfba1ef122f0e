"""[11]-style statistical / variation-aware training (Long et al., DATE'19).

The network is trained while sampling device variations onto the weights
every batch, so the learned solution is robust in distribution. No weights
are protected: hardware overhead is zero, but (per the paper's Fig. 8
comparison) the achievable accuracy at sigma = 0.5 is lower than
CorrectNet's suppression + compensation.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.baselines.common import BaselineResult
from repro.core.training import Trainer, TrainHistory
from repro.data.dataset import ArrayDataset
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.nn.module import Module
from repro.optim.optimizers import Adam, GRAD_CLIP
from repro.utils.rng import SeedLike
from repro.variation.models import VariationModel


class StatisticalTraining:
    """Noise-injection training baseline.

    ``fit`` trains a *copy* of the supplied (possibly pre-trained) model
    with per-batch sampled variations; ``evaluate`` runs the standard
    Monte-Carlo protocol on the robust model.
    """

    method_name = "statistical-training"

    def __init__(
        self,
        model: Module,
        variation: VariationModel,
        lr: float = 1e-3,
        seed: SeedLike = 0,
    ) -> None:
        self.model = copy.deepcopy(model)
        self.variation = variation
        self.lr = lr
        self.seed = seed

    def fit(
        self, train_data: ArrayDataset, epochs: int, batch_size: int = 32
    ) -> TrainHistory:
        trainer = Trainer(
            self.model,
            Adam(list(self.model.parameters()), lr=self.lr),
            variation=self.variation,
            grad_clip=GRAD_CLIP,
            seed=self.seed,
        )
        return trainer.fit(train_data, epochs=epochs, batch_size=batch_size)

    def evaluate(
        self,
        eval_data: ArrayDataset,
        n_samples: int = 25,
        seed: SeedLike = 1234,
    ) -> BaselineResult:
        evaluator = MonteCarloEvaluator(eval_data, n_samples=n_samples, seed=seed)
        result = evaluator.evaluate(self.model, self.variation)
        return BaselineResult(
            method=self.method_name,
            overhead=0.0,
            accuracy_mean=result.mean,
            accuracy_std=result.std,
            online_retraining=False,
        )
