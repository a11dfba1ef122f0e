"""Learning-rate schedule.

The schedule mutates ``optimizer.lr`` on :meth:`CosineSchedule.step`;
epoch counting is the caller's job (one ``step()`` per epoch by
convention).
"""

from __future__ import annotations

import math

from repro.optim.optimizers import Optimizer


class CosineSchedule:
    """Cosine annealing from the base LR to ``min_lr`` over ``total_epochs``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 0.0):
        if total_epochs <= 0:
            raise ValueError(f"total_epochs must be positive, got {total_epochs}")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def step(self) -> float:
        self.epoch += 1
        lr = self._lr_at(self.epoch)
        self.optimizer.lr = lr
        return lr

    def _lr_at(self, epoch: int) -> float:
        progress = min(epoch / self.total_epochs, 1.0)
        cos = 0.5 * (1 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cos
