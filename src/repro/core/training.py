"""A generic training loop shared by every trained component.

One loop covers all four training regimes in the reproduction:

- plain training (original baseline networks);
- Lipschitz-regularized training (pass ``regularizer`` — eq. 11);
- noise-aware / statistical training (pass ``variation``: a fresh weight
  perturbation is sampled for every batch, the [11]-style baseline);
- compensation training (freeze originals, pass ``variation`` so the
  generators/compensators learn under sampled variations — Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.autograd import Tensor
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.evaluation.metrics import accuracy
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.optimizers import Optimizer, clip_grad_norm
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, SeedLike
from repro.variation.injector import VariationInjector
from repro.variation.spec import parse_spec, VariationLike

logger = get_logger("core.training")


@dataclass
class TrainHistory:
    """What :meth:`Trainer.fit` records: per-epoch loss and regularizer
    curves, and the validation accuracy after the last epoch (``None``
    without ``val_data``)."""

    loss: List[float] = field(default_factory=list)
    val_accuracy: Optional[float] = None
    regularizer: List[float] = field(default_factory=list)


class Trainer:
    """Mini-batch gradient trainer.

    Parameters
    ----------
    model, optimizer:
        The module tree and an optimizer over its parameters.
    regularizer:
        Optional object with ``penalty(model) -> Tensor`` added to the loss
        (the Lipschitz term of eq. 11).
    variation:
        Optional variation spec — a :class:`VariationModel`, a grammar
        string (``"lognormal:0.5+quant:4"``) or a spec dict; when given,
        every batch runs with an independently sampled weight perturbation
        (noise-aware training / compensation training). ``LayerMap`` specs
        resolve per layer through the injector.
    grad_clip:
        Optional global L2 gradient-norm clip.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        regularizer=None,
        variation: Optional["VariationLike"] = None,
        grad_clip: Optional[float] = None,
        seed: SeedLike = 0,
        regularizer_warmup_epochs: int = 0,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = CrossEntropyLoss()
        self.regularizer = regularizer
        self.variation = None if variation is None else parse_spec(variation)
        # One injector for every batch: it binds to the module tree as
        # constructed, and draws from ``param.data`` at draw time, so the
        # optimizer's updates reach it without a rebuild.
        self._injector = (
            None
            if self.variation is None
            else VariationInjector(model, self.variation)
        )
        self.grad_clip = grad_clip
        self._rng = new_rng(seed)
        # Deep networks cannot learn under the full orthogonality pull from
        # scratch (the penalty shrinks every layer to lambda < 1 before the
        # task signal forms); ramping beta over the first epochs lets the
        # task loss shape the weights first. 0 disables the ramp.
        self.regularizer_warmup_epochs = regularizer_warmup_epochs
        self._reg_scale = 1.0

    def _train_batch(self, images, labels) -> tuple:
        """One optimization step; returns (task_loss, reg_loss). Under a
        variation spec the step trains against one fresh draw."""
        self.optimizer.zero_grad()

        def _forward_backward():
            logits = self.model(Tensor(images))
            task_loss = self.loss_fn(logits, labels)
            reg_value = 0.0
            loss = task_loss
            if self.regularizer is not None and self._reg_scale > 0.0:
                reg = self.regularizer.penalty(self.model) * self._reg_scale
                loss = loss + reg
                reg_value = reg.item()
            loss.backward()
            return task_loss.item(), reg_value

        injector = self._injector
        if injector is not None:
            with injector.applied(self._rng):
                values = _forward_backward()
        else:
            values = _forward_backward()

        if self.grad_clip is not None:
            clip_grad_norm(self.optimizer.parameters, self.grad_clip)
        self.optimizer.step()
        return values

    def fit(
        self,
        train_data: ArrayDataset,
        epochs: int,
        batch_size: int = 32,
        val_data: Optional[ArrayDataset] = None,
        scheduler=None,
    ) -> TrainHistory:
        """Train for ``epochs`` epochs; returns the collected history.

        ``val_data`` is swept once, after the last epoch: a sweep is a full
        pass over the split, and only the final accuracy is read. The
        train split is never swept.
        """
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        history = TrainHistory()
        loader = DataLoader(train_data, batch_size=batch_size, seed=self._rng)
        self.model.train()
        for epoch in range(epochs):
            if self.regularizer_warmup_epochs > 0:
                self._reg_scale = min(1.0, epoch / self.regularizer_warmup_epochs)
            epoch_loss = 0.0
            epoch_reg = 0.0
            n_batches = 0
            for images, labels in loader:
                task_loss, reg_loss = self._train_batch(images, labels)
                epoch_loss += task_loss
                epoch_reg += reg_loss
                n_batches += 1
            history.loss.append(epoch_loss / max(n_batches, 1))
            history.regularizer.append(epoch_reg / max(n_batches, 1))
            if scheduler is not None:
                scheduler.step()
            logger.debug(
                "epoch %d: loss=%.4f reg=%.4f",
                epoch,
                history.loss[-1],
                history.regularizer[-1],
            )
            self.model.train()
        if val_data is not None:
            history.val_accuracy = accuracy(self.model, val_data)
        return history
