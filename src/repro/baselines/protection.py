"""[8]-style baseline: protect important weights in SRAM, optionally adapt
online.

Charan et al. (DAC 2020) replicate statistically important weights into
SRAM (variation-free) and optionally adapt them on-line per manufactured
chip. Here importance is weight magnitude, protection is a mask holding
those entries at nominal value on top of each variation draw, and online
adaptation retrains exactly the protected entries for each variation sample
(each "chip") before measuring accuracy.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autograd import Tensor
from repro.baselines.common import BaselineResult, magnitude_masks, masks_overhead
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.evaluation.metrics import accuracy
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, Parameter
from repro.utils.rng import spawn_rngs, SeedLike
from repro.nn.graph import weighted_layers
from repro.variation.injector import VariationInjector
from repro.variation.models import VariationModel


class ImportantWeightProtection:
    """Evaluate magnitude-based weight protection at a given overhead.

    Parameters
    ----------
    model:
        A *trained* network (kept unmodified; adaptation happens on
        perturbed copies in place and is rolled back).
    fraction:
        Fraction of all weights to protect (the Fig. 8 overhead axis).
    """

    method_name = "important-weight-protection"

    def __init__(self, model: Module, fraction: float) -> None:
        self.model = model
        self.fraction = fraction
        self.masks: Dict[str, np.ndarray] = magnitude_masks(model, fraction)

    @property
    def overhead(self) -> float:
        return masks_overhead(self.model, self.masks)

    def _weights(self) -> Dict[str, Parameter]:
        """``{qualified weight name: parameter}``, keyed like the masks."""
        return {
            f"{name}.weight": layer._parameters["weight"]
            for name, layer in weighted_layers(self.model)
        }

    def _adapt_protected(
        self,
        train_data: ArrayDataset,
        steps: int,
        lr: float,
        batch_size: int,
        rng: np.random.Generator,
    ) -> None:
        """Online adaptation: masked SGD on the protected entries only,
        against the *currently programmed* (perturbed) network."""
        loss_fn = CrossEntropyLoss()
        params = self._weights()
        loader = DataLoader(train_data, batch_size=batch_size, seed=rng)
        done = 0
        while done < steps:
            for images, labels in loader:
                if done >= steps:
                    break
                for p in params.values():
                    p.zero_grad()
                loss = loss_fn(self.model(Tensor(images)), labels)
                loss.backward()
                for name, p in params.items():
                    mask = self.masks.get(name)
                    if mask is None or p.grad is None:
                        continue
                    p.data = p.data - lr * p.grad * mask
                done += 1

    def evaluate(
        self,
        variation: VariationModel,
        eval_data: ArrayDataset,
        n_samples: int = 25,
        seed: SeedLike = 1234,
        online_retraining: bool = False,
        train_data: Optional[ArrayDataset] = None,
        adapt_steps: int = 20,
        adapt_lr: float = 5e-3,
        batch_size: int = 32,
    ) -> BaselineResult:
        """Monte-Carlo accuracy with protection (and optional per-sample
        adaptation). The model's nominal weights are restored after every
        sample, so each sample ("chip") adapts from nominal."""
        if online_retraining and train_data is None:
            raise ValueError("online retraining requires train_data")
        injector = VariationInjector(self.model, variation)
        # Adaptation writes every masked weight, also the layers a
        # ``LayerMap`` holds at nominal, which the injector's restore
        # does not cover.
        masked = [
            (param, param.data, self.masks[name])
            for name, param in self._weights().items()
            if name in self.masks
        ]
        # Masked entries are held at nominal on top of each draw, on the
        # injector's targets only.
        targets = {id(param) for param in injector.target_parameters()}
        protected = [entry for entry in masked if id(entry[0]) in targets]
        accuracies = []
        was_training = self.model.training
        self.model.eval()
        try:
            for rng in spawn_rngs(seed, n_samples):
                try:
                    with injector.applied(rng):
                        for param, nominal, mask in protected:
                            param.data = np.where(mask, nominal, param.data)
                        if online_retraining:
                            self._adapt_protected(
                                train_data, adapt_steps, adapt_lr, batch_size, rng
                            )
                        accuracies.append(accuracy(self.model, eval_data))
                finally:
                    for param, nominal, _ in masked:
                        param.data = nominal
        finally:
            self.model.train(was_training)
        return BaselineResult(
            method=self.method_name,
            overhead=self.overhead,
            accuracy_mean=float(np.mean(accuracies)),
            accuracy_std=float(np.std(accuracies)),
            online_retraining=online_retraining,
        )
