"""Adam, gradient clipping and the cosine learning-rate schedule."""

from repro.optim.optimizers import Adam, Optimizer, clip_grad_norm
from repro.optim.schedulers import CosineSchedule

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "CosineSchedule",
]
