"""A small CIFAR-style residual network (ResNet-8 family).

The first genuinely branch-carrying model family in the zoo: three
residual stages on top of a 3x3 stem, global average pooling, and a
linear classifier. It exists to exercise the module-graph sample-axis
contract — residual fan-in and downsampling 1x1 shortcut
projections — on every Monte-Carlo engine and in
both the weight and the analog domain (``analogize`` preserves the
residual topology because it replaces layers in place).

Like the rest of the zoo the model exposes a flat ``net`` Sequential;
inside it, each residual block's convolutions live directly inside
``Sequential`` bodies/shortcuts, so compensation wrappers can still be
spliced per weighted layer.
"""

from __future__ import annotations

from typing import Optional

import repro.nn as nn
from repro.nn.module import Module
from repro.utils.rng import new_rng, SeedLike


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual skip and post-add ReLU.

    The shortcut is the identity when shapes match and a 1x1 strided
    projection (ResNet option B) otherwise — a weighted, crossbar-mapped
    layer like the body convolutions. ``Residual`` registers the body
    before the shortcut, so the canonical graph walk orders this block's
    weighted layers (body conv1, body conv2, shortcut conv) consistently
    across every subsystem.
    """

    #: Pure delegation to sample-aware children plus the layout-aware
    #: fan-in add inside ``Residual``.
    sample_aware = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = new_rng(seed)

        def _seed() -> int:
            return int(rng.integers(2**31))

        body = nn.Sequential(
            nn.Conv2d(
                in_channels, out_channels, 3,
                stride=stride, padding=1, seed=_seed(),
            ),
            nn.ReLU(),
            nn.Conv2d(out_channels, out_channels, 3, padding=1, seed=_seed()),
        )
        shortcut: Optional[Module] = None
        if stride != 1 or in_channels != out_channels:
            shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, seed=_seed())
            )

        self.residual = nn.Residual(body, shortcut)
        self.relu = nn.ReLU()

    def forward(self, x):
        return self.relu(self.residual(x))


class ResNet8(Module):
    """3-stage CIFAR-style residual network (8 chain weighted layers).

    Stem conv, one :class:`BasicBlock` per stage (widths w, 2w, 4w with
    stride-2 downsampling between stages), global average pooling and a
    linear head. The two downsampling blocks add 1x1 shortcut projections,
    for 10 weighted (crossbar-mapped) layers total on the 16x16 synthetic
    inputs.
    """

    #: forward purely delegates to ``net``; every child is sample-aware.
    sample_aware = True

    def __init__(
        self,
        num_classes: int,
        in_channels: int = 3,
        base_width: int = 16,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        rng = new_rng(seed)

        def _seed() -> int:
            return int(rng.integers(2**31))

        w = base_width
        self.num_classes = num_classes
        self.net = nn.Sequential(
            nn.Conv2d(in_channels, w, 3, padding=1, seed=_seed()),
            nn.ReLU(),
            BasicBlock(w, w, stride=1, seed=_seed()),
            BasicBlock(w, 2 * w, stride=2, seed=_seed()),
            BasicBlock(2 * w, 4 * w, stride=2, seed=_seed()),
            nn.GlobalAvgPool2d(),
            nn.Linear(4 * w, num_classes, seed=_seed()),
        )

    def forward(self, x):
        return self.net(x)
