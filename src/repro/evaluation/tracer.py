"""Per-layer error propagation tracing (the phenomenon of paper Fig. 4).

Runs the same input batch through the nominal and a perturbed copy of the
network, recording the relative L2 deviation of every weighted layer's
output. On an unregularized deep network the deviation grows with depth
(error amplification); after Lipschitz training it stays bounded — the
integration tests assert exactly this contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.nn.module import Module
from repro.utils.rng import SeedLike, spawn_rngs
from repro.nn.graph import weighted_layers
from repro.variation.injector import VariationInjector
from repro.variation.models import VariationModel


@dataclass
class LayerDeviation:
    """Relative deviation of one layer's output feature map."""

    index: int
    name: str
    relative_error: float


class ErrorPropagationTracer:
    """Trace how weight variations perturb intermediate feature maps."""

    def __init__(self, model: Module) -> None:
        self.model = model
        self.layers = weighted_layers(model)

    def _capture(self, x: np.ndarray) -> List[np.ndarray]:
        """Forward ``x`` capturing every weighted layer's output."""
        captured: List[np.ndarray] = []
        originals = [layer.forward for _, layer in self.layers]

        def _wrap(layer_forward):
            def hooked(*args, **kwargs):
                out = layer_forward(*args, **kwargs)
                captured.append(np.array(out.data, copy=True))
                return out

            return hooked

        try:
            for (_, layer), fwd in zip(self.layers, originals):
                layer.forward = _wrap(fwd)
            with no_grad():
                self.model(Tensor(x))
        finally:
            for (_, layer), fwd in zip(self.layers, originals):
                layer.forward = fwd
        return captured

    def trace(
        self,
        x: np.ndarray,
        variation: VariationModel,
        seed: SeedLike = 0,
    ) -> List[LayerDeviation]:
        """Per-layer relative errors between nominal and perturbed runs."""
        was_training = self.model.training
        self.model.eval()
        try:
            nominal = self._capture(x)
            injector = VariationInjector(self.model, variation)
            with injector.applied(seed):
                perturbed_maps = self._capture(x)
        finally:
            self.model.train(was_training)
        deviations = []
        for i, ((name, _), a, b) in enumerate(
            zip(self.layers, nominal, perturbed_maps)
        ):
            denom = float(np.linalg.norm(a)) + 1e-12
            deviations.append(
                LayerDeviation(
                    index=i,
                    name=name,
                    relative_error=float(np.linalg.norm(b - a)) / denom,
                )
            )
        return deviations

    def amplification_profile(
        self,
        x: np.ndarray,
        variation: VariationModel,
        n_samples: int = 8,
        seed: SeedLike = 0,
    ) -> List[float]:
        """Mean relative error per layer over several variation draws."""
        sums: Optional[np.ndarray] = None
        rngs = None if seed is None else spawn_rngs(seed, n_samples)
        for i in range(n_samples):
            devs = self.trace(x, variation, seed=None if rngs is None else rngs[i])
            errs = np.array([d.relative_error for d in devs])
            sums = errs if sums is None else sums + errs
        assert sums is not None
        return list(sums / n_samples)
