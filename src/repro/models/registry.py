"""Factory mapping the paper's network-dataset pairs to model instances."""

from __future__ import annotations

from typing import List

from repro.data.dataset import ArrayDataset
from repro.models.attention import AttnMLP
from repro.models.lenet import LeNet5
from repro.models.mlp import MLP
from repro.models.resnet import ResNet8
from repro.models.vgg import VGG
from repro.utils.rng import SeedLike


def available_models() -> List[str]:
    return [
        "lenet5",
        "vgg16",
        "vgg11",
        "resnet8",
        "attnmlp",
        "mlp",
    ]


def build_model(
    name: str,
    dataset: ArrayDataset,
    width: float = 1.0,
    seed: SeedLike = 0,
):
    """Instantiate ``name`` sized to ``dataset``'s shape and class count.

    ``width`` scales the *reproduction-default* channel/feature counts
    (1.0 = the calibrated defaults below, chosen so each pair lands in the
    paper's accuracy/robustness regime — see EXPERIMENTS.md). The paper's
    four experiment pairs are (vgg16, synth_cifar100),
    (vgg16, synth_cifar10), (lenet5, synth_cifar10), (lenet5, synth_mnist).
    """
    channels, height, width_px = dataset.image_shape
    if height != width_px:
        raise ValueError(f"square inputs expected, got {dataset.image_shape}")
    num_classes = dataset.num_classes
    name = name.lower()
    if name == "lenet5":
        # Multiplier 3 gives the redundancy level at which LeNet's
        # degradation profile matches the paper's (moderate collapse at
        # sigma=0.5, early-layer dominated).
        return LeNet5(
            num_classes=num_classes,
            in_channels=channels,
            input_size=height,
            width_multiplier=3.0 * width,
            seed=seed,
        )
    if name in ("vgg16", "vgg11"):
        # The classifier head scales with the class count: 100-way synthetic
        # classification needs a wider penultimate feature than 10-way.
        return VGG(
            config=name,
            num_classes=num_classes,
            in_channels=channels,
            input_size=height,
            width=0.125 * width,
            classifier_width=max(int(64 * width), int(1.3 * num_classes)),
            seed=seed,
        )
    if name == "resnet8":
        # The branch-carrying family: residual fan-in on every engine.
        return ResNet8(
            num_classes=num_classes,
            in_channels=channels,
            base_width=max(int(16 * width), 4),
            seed=seed,
        )
    if name == "attnmlp":
        # Patch-embed + self-attention + MLP head; its patch size 4 keeps a
        # 4x4 token grid on the 16x16 synthetic inputs.
        return AttnMLP(
            num_classes=num_classes,
            in_channels=channels,
            input_size=height,
            dim=max(int(32 * width), 8),
            seed=seed,
        )
    if name == "mlp":
        flat = channels * height * width_px
        return MLP(flat, [128, 64], num_classes, seed=seed)
    raise ValueError(f"unknown model {name!r}; available: {available_models()}")
