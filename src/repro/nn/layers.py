"""Core layers: linear, convolution, pooling, ReLU, containers."""

from __future__ import annotations

from typing import Iterable, Union

from repro.autograd import Tensor, functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng, SeedLike


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape (out, in).

    This 2-D weight is exactly what one RRAM crossbar (or a tile thereof)
    stores, so linear layers map one-to-one onto the hardware simulator.
    """

    #: ``x @ W.T`` batches over every leading axis, so a stacked
    #: ``(S, N, in)`` activation broadcasts correctly.
    sample_aware = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        shape = (out_features, in_features)
        self.weight = Parameter(init.kaiming_normal(shape, new_rng(seed)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}"


class Conv2d(Module):
    """2-D convolution with weight shape (out_channels, in_channels, KH, KW)."""

    #: ``F.conv2d`` folds a 5-D stacked input into the batch axis itself.
    sample_aware = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, tuple],
        stride: int = 1,
        padding: int = 0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kh, kw)
        self.weight = Parameter(init.kaiming_normal(shape, new_rng(seed)))
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def extra_repr(self) -> str:
        return (
            f"in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}"
        )


class ReLU(Module):
    """Rectified linear unit. 1-Lipschitz, hence 'free' for eq. (5)."""

    sample_aware = True  # elementwise: rank-agnostic

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class AvgPool2d(Module):
    """Average pooling over windows that step by their own height."""

    #: ``F.avg_pool2d`` handles the folded stacked batch like ``conv2d``.
    sample_aware = True

    def __init__(self, kernel_size: Union[int, tuple]):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)

    def extra_repr(self) -> str:
        return f"kernel={self.kernel_size}"


class MaxPool2d(Module):
    """Max pooling over windows that step by their own height."""

    #: ``F.max_pool2d`` handles the folded stacked batch like ``conv2d``.
    sample_aware = True

    def __init__(self, kernel_size: Union[int, tuple]):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)

    def extra_repr(self) -> str:
        return f"kernel={self.kernel_size}"


class Flatten(Module):
    """Collapse all but the batch axis.

    A 5-D input follows the channel-major stacked-activation convention
    (S, C, N, H, W) of the vectorized Monte-Carlo engine; it flattens to
    (S, N, C*H*W) — same per-image feature order as the 4-D case, with the
    leading sample axis preserved. This is where the sample axis returns
    to batch-major layout, and the maps are small here, so the transpose
    is cheap. Ordinary model activations are at most 4-D, so the rule is
    unambiguous.
    """

    sample_aware = True  # the ndim == 5 branch below is the stacked path

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 5:
            x = x.transpose(0, 2, 1, 3, 4)  # (S, N, C, H, W)
            return x.reshape(x.shape[0], x.shape[1], -1)
        return x.reshape(x.shape[0], -1)


class Identity(Module):
    sample_aware = True  # passthrough: rank-agnostic

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Ordered container; also indexable so CorrectNet can splice
    compensation wrappers around individual layers."""

    #: A container is stack-safe iff its children are; the eligibility
    #: walk (``supports_sample_axis``) still recurses into them.
    sample_aware = True

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            setattr(self, str(i), module)
            self._order.append(str(i))

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __setitem__(self, index: int, module: Module) -> None:
        name = self._order[index]
        setattr(self, name, module)

    def __iter__(self) -> Iterable[Module]:
        return iter(self._modules[name] for name in self._order)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self
