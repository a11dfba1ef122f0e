"""VGG (Simonyan & Zisserman, 2015) style deep conv networks.

Configuration strings follow the original paper: integers are 3x3
same-padded conv output widths, 'M' is a 2x2 max-pool. ``width`` scales all
channel counts so the 13-conv VGG-16 trains on the numpy substrate;
depth — what makes VGG16-Cifar100 collapse to 1.69% in the paper — is
untouched.
"""

from __future__ import annotations

from typing import Dict, List, Union

import repro.nn as nn
from repro.nn.module import Module
from repro.utils.rng import new_rng, SeedLike

VGG_CONFIGS: Dict[str, List[Union[int, str]]] = {
    # Original channel plans (width=1.0 reproduces the true layer widths).
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [
        64, 64, "M",
        128, 128, "M",
        256, 256, 256, "M",
        512, 512, 512, "M",
        512, 512, 512, "M",
    ],
}


class VGG(Module):
    """Configurable-depth VGG with a flat ``net`` Sequential.

    Parameters
    ----------
    config:
        Key into :data:`VGG_CONFIGS` (or a raw config list).
    width:
        Channel multiplier; 1.0 is the original size, the reproduction
        default 0.125 yields an 8..64-channel VGG-16 trainable on CPU.
    input_size:
        Square input resolution; must survive the config's pool count.
    """

    #: forward purely delegates to ``net``, so a leading sample axis passes
    #: through untouched (vectorized Monte-Carlo eligibility).
    sample_aware = True

    def __init__(
        self,
        config: Union[str, List[Union[int, str]]] = "vgg16",
        num_classes: int = 10,
        in_channels: int = 3,
        input_size: int = 16,
        width: float = 0.125,
        classifier_width: int = 64,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        plan = VGG_CONFIGS[config] if isinstance(config, str) else config
        rng = new_rng(seed)

        def _seed() -> int:
            return int(rng.integers(2**31))

        layers: List[Module] = []
        channels = in_channels
        spatial = input_size
        for item in plan:
            if item == "M":
                # Small inputs exhaust the spatial extent before the config
                # runs out of pools (VGG-16 has 5; a 16x16 input supports 4).
                # Skip the pool but keep every conv — depth is the property
                # under study.
                if spatial < 2:
                    continue
                layers.append(nn.MaxPool2d(2))
                spatial //= 2
            else:
                out_channels = max(2, int(round(int(item) * width)))
                layers.append(
                    nn.Conv2d(channels, out_channels, 3, padding=1, seed=_seed())
                )
                layers.append(nn.ReLU())
                channels = out_channels
        layers.append(nn.Flatten())
        flat = channels * spatial * spatial
        layers.extend(
            [
                nn.Linear(flat, classifier_width, seed=_seed()),
                nn.ReLU(),
                nn.Linear(classifier_width, num_classes, seed=_seed()),
            ]
        )
        self.num_classes = num_classes
        self.config_name = config if isinstance(config, str) else "custom"
        self.net = nn.Sequential(*layers)

    def forward(self, x):
        return self.net(x)

    def extra_repr(self) -> str:
        return f"config={self.config_name}, classes={self.num_classes}"
