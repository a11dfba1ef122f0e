"""Accuracy and recovery metrics."""

from __future__ import annotations

from repro.autograd import Tensor, no_grad
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module


def accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """Top-1 classification accuracy of ``model`` on ``dataset``.

    Runs in eval mode under ``no_grad`` and restores the previous training
    mode afterwards.
    """
    was_training = model.training
    model.eval()
    correct = 0
    try:
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                images = dataset.images[start : start + batch_size]
                labels = dataset.labels[start : start + batch_size]
                logits = model(Tensor(images)).data
                correct += int((logits.argmax(axis=1) == labels).sum())
    finally:
        model.train(was_training)
    return correct / len(dataset)


def recovery_ratio(corrected: float, original: float) -> float:
    """CorrectNet's headline metric: corrected accuracy as a fraction of the
    variation-free original accuracy (the paper reports >= 0.95)."""
    if original <= 0:
        raise ValueError(f"original accuracy must be positive, got {original}")
    return corrected / original
