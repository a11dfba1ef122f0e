"""Neural-network modules on top of the autograd engine.

Mirrors the familiar ``torch.nn`` surface at the scale this reproduction
needs: ``Module``/``Parameter`` trees with named parameter traversal
(the variation injector and crossbar mapper rely on it), convolution /
linear / pooling / normalisation layers, ReLU, the residual and
attention blocks, containers, and the cross-entropy loss.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.structural import (
    GlobalAvgPool2d,
    LayerNorm,
    Residual,
    SelfAttention,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn import graph, init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "ReLU",
    "AvgPool2d",
    "MaxPool2d",
    "Flatten",
    "Identity",
    "Sequential",
    "Residual",
    "GlobalAvgPool2d",
    "LayerNorm",
    "SelfAttention",
    "BatchNorm2d",
    "CrossEntropyLoss",
    "graph",
    "init",
]
