"""Procedural stand-ins for MNIST / CIFAR-10 / CIFAR-100.

Construction
------------
Each class gets a fixed *prototype*:

- ``synth_mnist``: a 5x7 digit glyph (a real bitmap font for '0'..'9')
  rendered into a 16x16 canvas — visually digit-like, one channel.
- ``synth_cifar10`` / ``synth_cifar100``: a smoothed random colour texture
  plus a geometric mask (disk / bars / checker / gradient ...), three
  channels. CIFAR-100 uses many more classes drawn from the same prototype
  family, which makes classes mutually closer and the task harder — the
  property that drives the paper's VGG16-Cifar100 accuracy collapse.

Samples are augmented prototypes: random shift, per-sample contrast/
brightness jitter and additive Gaussian noise. Difficulty is controlled by
``noise`` and ``max_shift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.augment import add_noise, random_shift, smooth2d
from repro.data.dataset import ArrayDataset
from repro.utils.rng import new_rng, SeedLike

# 5x7 bitmap glyphs for digits 0-9 (classic LED/terminal font).
_DIGIT_GLYPHS = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],
    3: ["11111", "00010", "00100", "00010", "00001", "10001", "01110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}


@dataclass
class SyntheticSpec:
    """Parameters of a synthetic dataset family.

    ``class_similarity`` in [0, 1) blends every prototype toward a shared
    base pattern: at 0 classes are fully independent; approaching 1 they
    differ only by small components, which both lowers achievable accuracy
    and makes trained networks fragile under weight perturbations (small
    logit margins) — the knob that positions each stand-in in its paper
    counterpart's difficulty regime.
    """

    name: str
    num_classes: int
    channels: int
    size: int
    train_per_class: int
    test_per_class: int
    noise: float
    max_shift: int
    seed: int
    class_similarity: float = 0.0


def _glyph_canvas(digit: int, size: int) -> np.ndarray:
    """Render a digit glyph centred on a ``size`` x ``size`` canvas in [0,1]."""
    glyph = _DIGIT_GLYPHS[digit]
    small = np.array([[int(c) for c in row] for row in glyph], dtype=np.float64)
    # Nearest-neighbour upscale to roughly 2/3 of the canvas.
    target_h = max(7, int(size * 0.7))
    scale = max(1, target_h // 7)
    big = np.kron(small, np.ones((scale, scale)))
    canvas = np.zeros((size, size))
    y0 = (size - big.shape[0]) // 2
    x0 = (size - big.shape[1]) // 2
    canvas[y0 : y0 + big.shape[0], x0 : x0 + big.shape[1]] = big
    return canvas


def _shape_mask(kind: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """One of several parametric geometric masks in [0,1]."""
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    kind = kind % 6
    if kind == 0:  # disk
        r = 0.25 + 0.15 * rng.random()
        cy, cx = 0.35 + 0.3 * rng.random(2)
        return (((yy - cy) ** 2 + (xx - cx) ** 2) < r**2).astype(np.float64)
    if kind == 1:  # horizontal bars
        freq = rng.integers(2, 5)
        return (np.sin(2 * np.pi * freq * yy) > 0).astype(np.float64)
    if kind == 2:  # vertical bars
        freq = rng.integers(2, 5)
        return (np.sin(2 * np.pi * freq * xx) > 0).astype(np.float64)
    if kind == 3:  # checkerboard
        freq = rng.integers(2, 4)
        return (
            (np.sin(2 * np.pi * freq * yy) * np.sin(2 * np.pi * freq * xx)) > 0
        ).astype(np.float64)
    if kind == 4:  # diagonal gradient
        return (yy + xx) / 2.0
    # ring
    r = 0.3 + 0.1 * rng.random()
    dist = np.sqrt((yy - 0.5) ** 2 + (xx - 0.5) ** 2)
    return (np.abs(dist - r) < 0.12).astype(np.float64)


def _class_prototype(
    cls: int, spec: SyntheticSpec, rng: np.random.Generator
) -> np.ndarray:
    """Fixed prototype image for class ``cls``, shape (C, H, W)."""
    size = spec.size
    if spec.channels == 1:
        canvas = _glyph_canvas(cls % 10, size)
        # Beyond 10 classes, overlay a shape to keep prototypes distinct.
        if cls >= 10:
            canvas = 0.6 * canvas + 0.4 * _shape_mask(cls, size, rng)
        return canvas[None]
    # Low-frequency class pattern: a coarse random grid upsampled to the
    # canvas. Keeping class identity in low spatial frequencies is what
    # makes it survive the conv nets' pooling stages (natural image class
    # structure is likewise low-frequency dominated).
    coarse = rng.normal(0.0, 1.0, size=(spec.channels, 4, 4))
    factor = size // 4
    texture = np.kron(coarse, np.ones((factor, factor)))
    if texture.shape[1] != size:  # non-multiple-of-4 canvas: pad by edge
        pad = size - texture.shape[1]
        texture = np.pad(texture, ((0, 0), (0, pad), (0, pad)), mode="edge")
    texture = smooth2d(texture, 1)
    texture /= np.abs(texture).max() + 1e-9
    mask = _shape_mask(cls, size, rng)
    color = rng.uniform(0.2, 1.0, size=(spec.channels, 1, 1))
    proto = texture + mask[None] * color
    return proto


def make_synthetic(spec: SyntheticSpec) -> Tuple[ArrayDataset, ArrayDataset]:
    """Generate (train, test) datasets for ``spec``.

    Train and test samples are drawn from the same augmentation
    distribution but with disjoint rng streams, so test accuracy measures
    generalisation over the augmentation noise, not memorisation.
    """
    proto_rng = new_rng(spec.seed)
    prototypes = [
        _class_prototype(c, spec, proto_rng) for c in range(spec.num_classes)
    ]
    if spec.class_similarity > 0.0:
        if not spec.class_similarity < 1.0:
            raise ValueError(
                f"class_similarity must be in [0, 1), got {spec.class_similarity}"
            )
        shared = _class_prototype(spec.num_classes, spec, proto_rng)
        alpha = spec.class_similarity
        prototypes = [alpha * shared + (1.0 - alpha) * p for p in prototypes]

    def _sample_split(per_class: int, rng: np.random.Generator):
        images = np.empty(
            (per_class * spec.num_classes, spec.channels, spec.size, spec.size)
        )
        labels = np.empty(per_class * spec.num_classes, dtype=np.int64)
        i = 0
        for cls, proto in enumerate(prototypes):
            for _ in range(per_class):
                img = proto.copy()
                contrast = rng.uniform(0.8, 1.2)
                brightness = rng.uniform(-0.1, 0.1)
                img = img * contrast + brightness
                img = random_shift(img, spec.max_shift, rng)
                img = add_noise(img, spec.noise, rng)
                images[i] = img
                labels[i] = cls
                i += 1
        return ArrayDataset(images, labels).normalized()

    train = _sample_split(spec.train_per_class, new_rng(spec.seed + 1))
    test = _sample_split(spec.test_per_class, new_rng(spec.seed + 2))
    return train, test


def synth_mnist(
    train_per_class: int = 64,
    test_per_class: int = 32,
    size: int = 16,
    noise: float = 0.15,
    seed: int = 11,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """MNIST stand-in: 10 digit-glyph classes, one channel.

    Default noise/shift are tuned so LeNet-5 reaches ~96-99% test accuracy
    (the real-MNIST regime of the paper's Table I).
    """
    spec = SyntheticSpec(
        name="synth_mnist",
        num_classes=10,
        channels=1,
        size=size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        noise=noise,
        max_shift=1,
        seed=seed,
    )
    return make_synthetic(spec)


def synth_cifar10(
    train_per_class: int = 64,
    test_per_class: int = 32,
    size: int = 16,
    noise: float = 0.5,
    class_similarity: float = 0.55,
    seed: int = 22,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-10 stand-in: 10 colour texture/shape classes.

    Defaults are tuned harder than ``synth_mnist``: CIFAR-10 is the paper's
    difficult LeNet workload (80.89% clean accuracy), so the stand-in mixes
    prototypes toward a shared base (``class_similarity``) and adds strong
    pixel noise — models sit below saturation and degrade visibly under
    weight variations.
    """
    spec = SyntheticSpec(
        name="synth_cifar10",
        num_classes=10,
        channels=3,
        size=size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        noise=noise,
        max_shift=2,
        seed=seed,
        class_similarity=class_similarity,
    )
    return make_synthetic(spec)


def synth_cifar100(
    num_classes: int = 100,
    train_per_class: int = 12,
    test_per_class: int = 6,
    size: int = 16,
    noise: float = 0.3,
    seed: int = 33,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-100 stand-in: many mutually-close colour classes.

    ``num_classes`` is configurable so fast benchmark modes can use a
    smaller (but still many-class) variant; the default matches the paper's
    100.
    """
    spec = SyntheticSpec(
        name="synth_cifar100",
        num_classes=num_classes,
        channels=3,
        size=size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        noise=noise,
        max_shift=1,
        seed=seed,
    )
    return make_synthetic(spec)


#: The dataset registry (name -> ``(train, test)`` factory): the one
#: table the CLIs and the job store resolve a ``--dataset`` name through.
DATASET_FACTORIES: Dict[str, Callable[[], Tuple[ArrayDataset, ArrayDataset]]] = {
    "synth_mnist": synth_mnist,
    "synth_cifar10": synth_cifar10,
    "synth_cifar100": synth_cifar100,
}
